// Shared pieces of the repository benchmark driver: run options, a
// steady-clock span recorder, and a minimal JSON writer for the raw result
// file that perfbench/run.py turns into metrics.
//
// The driver measures the library from outside: every span wraps a call
// into a public function, and every counter is one the library already
// exposes, read at span boundaries. Nothing here is linked into the
// library itself.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "compiler/fusion.hpp"
#include "runtime/parallel.hpp"
#include "tensor/op_profile.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;         // raw result JSON
  std::string trace_out;   // span file (traced runs)
  std::string work_dir;    // scratch files (checkpoints)
};

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (all threads), seconds.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The process-wide counters the library exposes, read together at a span
/// or phase boundary; a layer's share is the difference of two reads.
struct Counters {
  stgraph::ops::OpProfile ops;
  stgraph::compiler::fusion::FusionStats fusion;
  uint64_t launches = 0;
  uint64_t launch_items = 0;
  double cpu_s = 0.0;

  static Counters read() {
    Counters c;
    c.ops = stgraph::ops::profile_snapshot();
    c.fusion = stgraph::compiler::fusion::fusion_stats();
    auto& ks = stgraph::device::KernelStats::instance();
    c.launches = ks.launches.load(std::memory_order_relaxed);
    c.launch_items = ks.total_threads.load(std::memory_order_relaxed);
    c.cpu_s = process_cpu_s();
    return c;
  }
};

/// In-memory span recorder. Spans form a tree through `parent` (index of
/// the enclosing open span, -1 for roots); `group` tags every span of one
/// epoch or phase so the analysis can split per epoch. Single-threaded:
/// the training driver records from the thread that makes the calls.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t begin_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    int32_t group = 0;
  };

  int32_t open(const char* name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.group = group_;
    s.begin_ns = now_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }
  void set_group(int32_t g) { group_ = g; }

  /// Write the spans as one JSON object: {"spans": [[name, begin_ns,
  /// end_ns, parent, group], ...]}. Returns false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  int32_t group_ = 0;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t), idx_(t ? t->open(name) : -1) {}
  ~Scope() {
    if (t_) t_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int32_t idx_;
};

/// Streaming JSON object writer for the raw result file. Keys are plain
/// identifiers; doubles keep all 17 significant digits.
class Json {
 public:
  Json& key(const std::string& k);
  Json& num(double v);
  Json& num(uint64_t v);
  Json& str(const std::string& v);
  Json& boolean(bool v);
  Json& begin_obj();
  Json& end_obj();
  Json& begin_arr();
  Json& end_arr();
  Json& nums(const std::vector<double>& v);

  template <typename T>
  Json& field(const std::string& k, T v) {
    key(k);
    if constexpr (std::is_same_v<T, bool>) return boolean(v);
    else if constexpr (std::is_floating_point_v<T>) return num(static_cast<double>(v));
    else if constexpr (std::is_integral_v<T>) return num(static_cast<uint64_t>(v));
    else return str(std::string(v));
  }

  const std::string& text() const { return out_; }
  bool write(const std::string& path) const;

 private:
  void sep();
  std::string out_;
  bool need_comma_ = false;
  bool after_key_ = false;
};

/// One output check; a failed check makes the run invalid.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};
void write_checks(Json& js, const std::vector<Check>& checks);

/// Per-op-class counters (ops::profile_snapshot() deltas) as an object.
void write_ops(Json& js, const std::string& key, const stgraph::ops::OpProfile& p);

inline double mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Bit-exact text form of a double ("%a"), so repeated runs can be compared
/// as strings.
std::string hexfloat(double v);

/// Environment stamp fields shared by every workload (lanes, SIMD ISA,
/// build type). Writes them as fields of the currently open object.
void write_env(Json& js, const Options& opts);

/// True when the binary is an optimized, non-sanitized build.
bool optimized_build(std::string* why);

int run_train_dtdg(const Options& opts);
int run_serve_mixed(const Options& opts);

}  // namespace perfbench
