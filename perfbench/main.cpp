// perfbench_driver: runs one benchmark workload and writes its raw
// measurements (samples, counter deltas, output checks, environment stamp)
// as JSON. perfbench/run.py builds this binary, invokes it and turns the
// raw file into the metrics it prints.
//
//   perfbench_driver --workload train-dtdg --seed 3 --seconds 10
//       --trace 0 --out raw.json [--trace-out spans.json] [--work-dir DIR]
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "core/backend.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {

// ---- JSON ---------------------------------------------------------------

void Json::sep() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (need_comma_) out_ += ',';
}

Json& Json::key(const std::string& k) {
  sep();
  out_ += '"';
  out_ += k;
  out_ += "\":";
  after_key_ = true;
  need_comma_ = true;
  return *this;
}

Json& Json::num(double v) {
  sep();
  if (std::isfinite(v)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  } else {
    out_ += "null";
  }
  need_comma_ = true;
  return *this;
}

Json& Json::num(uint64_t v) {
  sep();
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

Json& Json::str(const std::string& v) {
  sep();
  out_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out_ += ' ';
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  need_comma_ = true;
  return *this;
}

Json& Json::boolean(bool v) {
  sep();
  out_ += v ? "true" : "false";
  need_comma_ = true;
  return *this;
}

Json& Json::begin_obj() {
  sep();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

Json& Json::end_obj() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

Json& Json::begin_arr() {
  sep();
  out_ += '[';
  need_comma_ = false;
  return *this;
}

Json& Json::end_arr() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

Json& Json::nums(const std::vector<double>& v) {
  begin_arr();
  for (double x : v) num(x);
  return end_arr();
}

bool Json::write(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << out_ << '\n';
  return static_cast<bool>(f);
}

bool Tracer::write(const std::string& path) const {
  Json js;
  js.begin_obj().key("spans").begin_arr();
  for (const Span& s : spans_) {
    js.begin_arr()
        .str(s.name)
        .num(static_cast<uint64_t>(s.begin_ns))
        .num(static_cast<uint64_t>(s.end_ns))
        .num(static_cast<double>(s.parent))
        .num(static_cast<uint64_t>(s.group))
        .end_arr();
  }
  js.end_arr().end_obj();
  return js.write(path);
}

void write_checks(Json& js, const std::vector<Check>& checks) {
  js.key("checks").begin_arr();
  for (const Check& c : checks) {
    js.begin_obj();
    js.field("name", c.name);
    js.field("ok", c.ok);
    js.field("detail", c.detail);
    js.end_obj();
  }
  js.end_arr();
}

void write_ops(Json& js, const std::string& key,
               const stgraph::ops::OpProfile& p) {
  namespace ops = stgraph::ops;
  js.key(key).begin_obj();
  for (int i = 0; i < ops::kOpClassCount; ++i) {
    js.key(ops::op_class_name(static_cast<ops::OpClass>(i))).begin_obj();
    js.field("count", p.count[i]);
    js.field("bytes", p.bytes[i]);
    js.field("s", 1e-9 * static_cast<double>(p.nanos[i]));
    js.end_obj();
  }
  js.end_obj();
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// ---- environment stamp -----------------------------------------------------

bool optimized_build(std::string* why) {
#if !defined(__OPTIMIZE__)
  *why = "built without optimization";
  return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "built with a sanitizer";
  return false;
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    *why = "build type '" + type + "' is not an optimized build";
    return false;
  }
  if (std::strlen(PERFBENCH_SANITIZE) != 0) {
    *why = std::string("library built with sanitizers: ") + PERFBENCH_SANITIZE;
    return false;
  }
  return true;
}

void write_env(Json& js, const Options& opts) {
  js.key("env").begin_obj();
  js.field("workload", opts.workload);
  js.field("seed", opts.seed);
  js.field("pool_lanes", stgraph::ThreadPool::instance().lanes());
  js.field("device_info", stgraph::core::native_backend().device_info());
  js.field("build_type", PERFBENCH_BUILD_TYPE);
  js.end_obj();
}

}  // namespace perfbench

namespace {

/// Lanes each workload pins. train-dtdg exercises thread scaling at 4.
/// serve-mixed leaves one of four cores to its PREDICT sender, which spins
/// to keep its schedule: at 4 lanes every forward pass shared a core with
/// it, and the run-to-run spread of the PREDICT tail grew by half.
const char* lanes_for(const std::string& workload) {
  return workload == "serve-mixed" ? "3" : "4";
}

int usage(const char* msg) {
  std::cerr << "perfbench_driver: " << msg
            << "\nusage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 --out FILE [--trace-out FILE] "
               "[--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") opts.workload = v;
      else if (k == "--seed") opts.seed = std::stoull(v);
      else if (k == "--seconds") opts.seconds = std::stod(v);
      else if (k == "--trace") opts.trace = v == "1";
      else if (k == "--out") opts.out = v;
      else if (k == "--trace-out") opts.trace_out = v;
      else if (k == "--work-dir") opts.work_dir = v;
      else return usage(("unknown argument " + k).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + k).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (opts.out.empty()) return usage("--out is required");
  if (opts.seconds <= 0) return usage("--seconds must be positive");
  if (opts.trace && opts.trace_out.empty())
    return usage("--trace 1 needs --trace-out");

  std::string why;
  if (!perfbench::optimized_build(&why)) {
    std::cerr << "perfbench_driver: refusing to measure: " << why << "\n";
    return 3;
  }
  // The pool reads this once, on first use; nothing has touched it yet.
  ::setenv("STGRAPH_NUM_THREADS", lanes_for(opts.workload), 1);

  try {
    if (opts.workload == "train-dtdg") return perfbench::run_train_dtdg(opts);
    if (opts.workload == "serve-mixed") return perfbench::run_serve_mixed(opts);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << opts.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }
  return usage(("unknown workload " + opts.workload).c_str());
}
