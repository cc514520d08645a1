// serve-mixed: a serve::Server (2 readers) behind net::Frontend on
// loopback, serving the train-dtdg graph (synthetic wiki-talk-temporal at
// scale 0.02, windowed at 1 % change) from a checkpoint trained in the run.
//
// Load comes from this process on two connections and three threads:
//   * a paced PREDICT sender and a response receiver, pipelined on one
//     connection. Open loop at a fixed rate for the first part of the run
//     (latency timed from each request's scheduled send), then a closed
//     loop with a fixed window of outstanding requests (capacity);
//   * an INGEST of the next delta and its features at a fixed cadence on
//     the second connection, throughout.
//
// The sender reads Server::stats() at every phase boundary, with no request
// in flight, so server-side figures are split into open-loop and
// closed-loop windows.
//
// Output checks: every PREDICT response carries the requested row count;
// the server's accounting identity holds; the last full-matrix PREDICT
// over the wire is memcmp-equal to an in-process Server fed the same
// checkpoint and deltas.
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/trainer.hpp"
#include "datasets/synthetic.hpp"
#include "gpma/gpma_graph.hpp"
#include "net/client.hpp"
#include "net/frontend.hpp"
#include "nn/models.hpp"
#include "runtime/memory_tracker.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using stgraph::DtdgEvents;
using stgraph::EdgeDelta;
using stgraph::GpmaGraph;
using stgraph::MemCategory;
using stgraph::MemoryTracker;
using stgraph::Rng;
using stgraph::Tensor;
namespace core = stgraph::core;
namespace datasets = stgraph::datasets;
namespace net = stgraph::net;
namespace nn = stgraph::nn;
namespace serve = stgraph::serve;

constexpr int64_t kFeatures = 16;
constexpr int64_t kHidden = 16;
constexpr uint64_t kModelSeed = 0xBEEF;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kMaxBatch = 16;
constexpr int kCheckpointEpochs = 2;
constexpr int kSetupReps = 20;
constexpr int kWarmupPredicts = 200;
/// Fixed open-loop PREDICT rate, about a twentieth of the closed-loop
/// capacity of a quiet 4-core host, so the server stays out of backlog even
/// when host contention cuts its capacity five-fold; at half of capacity
/// the in-process sender itself fell behind its schedule.
constexpr double kOpenLoopRps = 4000.0;
/// Outstanding requests in the closed-loop capacity phase.
constexpr int64_t kClosedWindow = 32;
/// How long the closed-loop sender sleeps while its window is full. The
/// burst already keeps the receiver, the front end and both readers busy on
/// a 4-core host; a sender spinning beside them made capacity and the
/// PREDICT tail swing with the scheduler. Sleeping cost ~15 % of capacity
/// and, in six interleaved pairs, cut its run-to-run spread from 18 % to
/// 11 % and the tail's from 20 % to 6 %.
constexpr std::chrono::microseconds kClosedPoll{50};
/// The run is a sequence of cycles of kCycleS seconds, each an open-loop
/// stretch followed by a closed-loop burst taking kCapacityShare of it.
/// Metrics come from the best cycle (perfbench/run.py), so host contention
/// in some cycles cannot move them. A cycle is three ingest periods, so
/// every cycle sees its ingests at the same offsets. The best-cycle p99
/// spread by 7 % over five seeds with 0.5 s cycles, 19 % over ten with 1 s.
constexpr double kCycleS = 0.5;
constexpr double kCapacityShare = 0.25;
/// The 1 %-window timeline holds about 200 deltas; at 6 Hz it lasts 33 s,
/// longer than a run. A run that outlasts it is invalid: its last cycles
/// would have no writes.
constexpr double kIngestHz = 6.0;
constexpr std::size_t kNodeListPool = 4096;
constexpr double kDrainTimeoutS = 10.0;
/// How long a phase boundary waits for the requests in flight to finish.
constexpr double kBoundaryDrainS = 1.0;

const char* const kHost = "127.0.0.1";

struct Inputs {
  DtdgEvents train_events;  // 5 % windowing: checkpoint training
  datasets::TemporalSignal train_signal;
  DtdgEvents serve_events;  // 1 % windowing: base served, deltas ingested
  Tensor features;          // persistent node features [N, F]
  std::vector<std::vector<uint32_t>> node_lists;  // PREDICT node ids
};

Inputs make_inputs(uint64_t seed) {
  Inputs in;
  datasets::DynamicLoadOptions o;
  o.scale = 0.02;
  o.seed = seed;
  o.feature_size = kFeatures;
  const datasets::DynamicDataset ds = datasets::load_wiki_talk(o);
  in.train_events = datasets::make_dtdg(ds, 5.0);
  in.train_signal = datasets::make_dynamic_signal(in.train_events, o);
  in.serve_events = datasets::make_dtdg(ds, 1.0);
  in.features = in.train_signal.features.front();
  Rng rng(seed ^ 0x5E7E);
  const uint32_t n = in.serve_events.num_nodes;
  in.node_lists.resize(kNodeListPool);
  for (auto& l : in.node_lists) {
    const uint64_t k = 1 + rng.next_below(8);
    for (uint64_t i = 0; i < k; ++i)
      l.push_back(static_cast<uint32_t>(rng.next_below(n)));
  }
  return in;
}

/// The served graph starts at the base snapshot with no deltas; the load
/// generator ingests them one by one.
DtdgEvents base_only(const DtdgEvents& ev) {
  DtdgEvents b;
  b.num_nodes = ev.num_nodes;
  b.base_edges = ev.base_edges;
  return b;
}

serve::ServeConfig serve_config() {
  serve::ServeConfig cfg;
  cfg.num_readers = kReaders;
  cfg.max_batch = kMaxBatch;
  cfg.queue_capacity = 1 << 16;
  return cfg;
}

/// One serving stack on an ephemeral loopback port.
struct ServeStack {
  GpmaGraph graph;
  Rng rng;
  nn::TGCNEncoder model;
  serve::Server server;
  net::Frontend frontend;
  int64_t started_ns = 0;  // just after server.start()

  ServeStack(const DtdgEvents& base, const std::string& ckpt,
             const Tensor& features)
      : graph(base),
        rng(kModelSeed),
        model(kFeatures, kHidden, rng),
        server(graph, model, serve_config()),
        frontend(server) {
    server.load(ckpt);
    server.start(features);
    started_ns = now_ns();
    frontend.start();
  }
  ~ServeStack() {
    frontend.stop();
    server.stop();
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
};

/// Server counters at a phase boundary, read with no request in flight.
/// Server::stats() reports lifetime figures; differences of two marks give
/// the figures of the window between them.
struct ServerMark {
  int64_t at_ns = 0;
  uint64_t samples = 0;        // latency samples: fulfilled + stale
  double latency_sum_us = 0.0;
  uint64_t batches = 0;
  double batch_requests = 0.0;
  double reader_busy_s = 0.0;  // summed over readers

  static ServerMark read(const serve::Server& server, int64_t started_ns) {
    ServerMark m;
    m.at_ns = now_ns();
    const serve::StatsReport r = server.stats();
    m.samples = r.requests + r.stale_served;
    m.latency_sum_us = r.mean_us * static_cast<double>(m.samples);
    m.batches = r.batches;
    m.batch_requests = r.batch_occupancy * static_cast<double>(r.batches);
    // Utilization is busy time over the time since start().
    const double since_start_s = 1e-9 * static_cast<double>(m.at_ns - started_ns);
    for (double u : r.reader_utilization) m.reader_busy_s += u * since_start_s;
    return m;
  }
};

/// Server-side totals over a set of windows.
struct ServerWindow {
  uint64_t samples = 0;
  double latency_sum_us = 0.0;
  uint64_t batches = 0;
  double batch_requests = 0.0;
  double reader_busy_s = 0.0;
  double wall_s = 0.0;

  void add(const ServerMark& a, const ServerMark& b) {
    samples += b.samples - a.samples;
    latency_sum_us += b.latency_sum_us - a.latency_sum_us;
    batches += b.batches - a.batches;
    batch_requests += b.batch_requests - a.batch_requests;
    reader_busy_s += b.reader_busy_s - a.reader_busy_s;
    wall_s += 1e-9 * static_cast<double>(b.at_ns - a.at_ns);
  }
};

void write_window(Json& js, const std::string& key, const ServerWindow& w) {
  js.key(key).begin_obj();
  js.field("samples", w.samples);
  js.field("latency_sum_us", w.latency_sum_us);
  js.field("batches", w.batches);
  js.field("batch_requests", w.batch_requests);
  js.field("reader_busy_s", w.reader_busy_s);
  js.field("wall_s", w.wall_s);
  js.end_obj();
}

/// Everything the load threads observed.
struct LoadResult {
  // Open loop, per cycle: latency from the scheduled send of every PREDICT
  // sent (shed, failed and unanswered ones as +inf).
  std::vector<std::vector<double>> open_lat_us;
  std::vector<double> late_us;  // sender lateness per open-loop request
  uint64_t open_sent = 0, open_shed = 0, open_failed = 0;
  // Answered open-loop PREDICTs, timed from their actual send.
  double open_sent_lat_sum_us = 0.0;
  uint64_t open_ok = 0;
  // Server-side figures over the open-loop stretches and the bursts.
  ServerWindow open_server, burst_server;
  // Closed loop, per cycle: responses completed inside the window.
  std::vector<uint64_t> closed_ok;
  double closed_window_s = 0.0;
  uint64_t closed_sent = 0, closed_shed = 0, closed_failed = 0;
  uint64_t timed_out = 0;
  uint64_t wrong_rows = 0;
  std::string sender_error, receiver_error;
  // Ingest round trips.
  std::vector<double> ingest_ms;
  uint64_t ingests = 0, ingest_failed = 0;
  bool timeline_exhausted = false;
};

/// Run cycles of kCycleS seconds (open-loop PREDICTs, then a closed-loop burst)
/// on one pipelined connection, with paced ingests on a second one.
LoadResult run_load(const ServeStack& stack, const Inputs& in, double seconds,
                    Tracer* tr) {
  LoadResult res;
  const uint16_t port = stack.frontend.port();
  net::Client pconn(kHost, port, 200.0);
  net::Client iconn(kHost, port, 60000.0);

  const auto cycles = static_cast<uint64_t>(std::max(1.0, std::round(seconds / kCycleS)));
  const double cycle_ns = seconds * 1e9 / static_cast<double>(cycles);
  const double open_ns = cycle_ns * (1.0 - kCapacityShare);
  const double gap_ns = 1e9 / kOpenLoopRps;
  const auto per_cycle = static_cast<uint64_t>(open_ns / gap_ns);
  const uint64_t n_open = per_cycle * cycles;
  const int64_t start = now_ns() + 5'000'000;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  auto cycle_begin = [&](uint64_t c) {
    return start + static_cast<int64_t>(cycle_ns * static_cast<double>(c));
  };
  auto closed_begin = [&](uint64_t c) {
    return cycle_begin(c) + static_cast<int64_t>(open_ns);
  };
  // Open-loop request i (id i+1) is due at a fixed offset in its cycle.
  auto due_of = [&](uint64_t i) {
    return cycle_begin(i / per_cycle) +
           static_cast<int64_t>(gap_ns * static_cast<double>(i % per_cycle));
  };
  const auto& lists = in.node_lists;
  auto list_of = [&](uint64_t id) -> const std::vector<uint32_t>& {
    return lists[(id - 1) % lists.size()];
  };

  res.open_lat_us.resize(cycles);
  res.closed_ok.assign(cycles, 0);
  res.closed_window_s = 1e-9 * (cycle_ns - open_ns);
  res.late_us.assign(n_open, 0.0);
  std::vector<uint8_t> answered(n_open, 0);
  std::vector<std::atomic<int64_t>> sent_ns(n_open);
  std::atomic<int64_t> inflight{0};
  std::atomic<uint64_t> total_sent{0};
  std::atomic<bool> sender_done{false};

  auto send = [&](uint64_t id) {
    net::Frame f;
    f.verb = net::Verb::kPredict;
    f.request_id = id;
    f.payload = net::build_predict_request(list_of(id));
    const std::vector<uint8_t> bytes = net::encode_frame(f);
    inflight.fetch_add(1, std::memory_order_relaxed);
    pconn.send_raw(bytes.data(), bytes.size());
  };

  // Waits until every request sent has been answered, or for at most the
  // boundary drain time.
  auto drain = [&] {
    const int64_t limit = now_ns() + static_cast<int64_t>(kBoundaryDrainS * 1e9);
    while (inflight.load(std::memory_order_acquire) > 0 && now_ns() < limit)
      std::this_thread::yield();
  };
  // Open-loop sends on schedule, then a closed-loop burst, per cycle;
  // counts every frame sent. The server is read at each phase boundary.
  auto send_all = [&](uint64_t& sent) {
    uint64_t closed_id = n_open;
    ServerMark mark = ServerMark::read(stack.server, stack.started_ns);
    for (uint64_t c = 0; c < cycles; ++c) {
      for (uint64_t i = c * per_cycle; i < (c + 1) * per_cycle; ++i) {
        const int64_t due = due_of(i);
        int64_t now = now_ns();
        // Sleep through most of the gap, spin the last stretch.
        if (due - now > 120'000)
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - 80'000));
        while ((now = now_ns()) < due) std::this_thread::yield();
        res.late_us[i] = 1e-3 * static_cast<double>(now - due);
        sent_ns[i].store(now, std::memory_order_relaxed);
        send(i + 1);
        ++sent;
      }
      drain();
      while (now_ns() < closed_begin(c)) std::this_thread::yield();
      const ServerMark open_end = ServerMark::read(stack.server, stack.started_ns);
      res.open_server.add(mark, open_end);
      const int64_t closed_end = cycle_begin(c + 1);
      while (now_ns() < closed_end) {
        if (inflight.load(std::memory_order_acquire) >= kClosedWindow) {
          std::this_thread::sleep_for(kClosedPoll);
          continue;
        }
        send(++closed_id);
        ++sent;
      }
      drain();
      mark = ServerMark::read(stack.server, stack.started_ns);
      res.burst_server.add(open_end, mark);
    }
  };
  // Matches responses to requests until every sent request is answered or
  // the connection has been quiet for the drain timeout.
  auto receive_all = [&](uint64_t& received) {
    net::FrameDecoder dec;
    std::vector<char> buf(256 * 1024);
    net::Frame f;
    std::string line;
    int64_t last_progress = now_ns();
    for (;;) {
      if (sender_done.load(std::memory_order_acquire) &&
          received >= total_sent.load(std::memory_order_acquire))
        break;
      const auto st = dec.next(&f, &line);
      if (st == net::FrameDecoder::Status::kFrame) {
        const int64_t now = now_ns();
        last_progress = now;
        ++received;
        inflight.fetch_sub(1, std::memory_order_release);
        const uint64_t id = f.request_id;
        const bool open = id >= 1 && id <= n_open;
        if (open) answered[id - 1] = 1;
        double lat_us = std::numeric_limits<double>::infinity();
        if (f.verb == net::Verb::kPredictResp) {
          const net::PredictWire r = net::parse_predict_response(f.payload);
          if (static_cast<std::size_t>(r.outputs.rows()) != list_of(id).size())
            ++res.wrong_rows;
          if (open) {
            lat_us = 1e-3 * static_cast<double>(now - due_of(id - 1));
            res.open_sent_lat_sum_us +=
                1e-3 * static_cast<double>(now - sent_ns[id - 1].load(std::memory_order_relaxed));
            ++res.open_ok;
          } else {
            const auto c = static_cast<uint64_t>(
                static_cast<double>(now - start) / cycle_ns);
            if (c < cycles && now >= closed_begin(c)) ++res.closed_ok[c];
          }
        } else {
          std::string msg;
          const bool shed =
              static_cast<uint8_t>(net::parse_error(f.payload, &msg)) < 4;
          if (open) (shed ? res.open_shed : res.open_failed) += 1;
          else (shed ? res.closed_shed : res.closed_failed) += 1;
        }
        if (open) res.open_lat_us[(id - 1) / per_cycle].push_back(lat_us);
        continue;
      }
      if (st == net::FrameDecoder::Status::kProtocolError) {
        res.receiver_error = dec.error();
        break;
      }
      const ssize_t n = ::recv(pconn.fd(), buf.data(), buf.size(), 0);
      if (n > 0) {
        dec.feed(buf.data(), static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        res.receiver_error = "connection closed by the server";
        break;
      }
      // Receive timeout: give up once the sender is done and nothing has
      // arrived for the drain timeout; the rest count as timed out.
      if (sender_done.load(std::memory_order_acquire) &&
          now_ns() - last_progress > static_cast<int64_t>(kDrainTimeoutS * 1e9))
        break;
    }
  };

  std::thread sender([&] {
    uint64_t sent = 0;
    try {
      send_all(sent);
    } catch (const std::exception& e) {
      res.sender_error = e.what();
    }
    total_sent.store(sent, std::memory_order_release);
    sender_done.store(true, std::memory_order_release);
  });

  std::thread receiver([&] {
    uint64_t received = 0;
    try {
      receive_all(received);
    } catch (const std::exception& e) {
      res.receiver_error = e.what();
    }
    const uint64_t sent = total_sent.load(std::memory_order_acquire);
    res.timed_out = sent > received ? sent - received : 0;
  });

  std::thread ingester([&] {
    const std::vector<EdgeDelta>& deltas = in.serve_events.deltas;
    for (uint64_t k = 0;; ++k) {
      const int64_t due =
          start + static_cast<int64_t>(1e9 * static_cast<double>(k) / kIngestHz);
      if (due >= end) break;
      if (k == deltas.size()) {
        res.timeline_exhausted = true;
        break;
      }
      const int64_t now = now_ns();
      if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      const int64_t b = now_ns();
      try {
        iconn.ingest(deltas[k], in.features);
        res.ingest_ms.push_back(1e-6 * static_cast<double>(now_ns() - b));
      } catch (const std::exception&) {
        ++res.ingest_failed;
      }
      ++res.ingests;
    }
  });

  {
    Scope phase(tr, "serve.load");
    sender.join();
    ingester.join();
    receiver.join();
  }
  for (uint64_t i = 0; i < n_open; ++i)
    if (!answered[i])
      res.open_lat_us[i / per_cycle].push_back(
          std::numeric_limits<double>::infinity());
  res.open_sent = n_open;
  const uint64_t sent = total_sent.load();
  res.closed_sent = sent > n_open ? sent - n_open : 0;
  return res;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

}  // namespace

int run_serve_mixed(const Options& opts) {
  const Inputs in = make_inputs(opts.seed);
  const DtdgEvents base = base_only(in.serve_events);
  std::vector<Check> checks;
  Tracer tracer;
  Tracer* tr = opts.trace ? &tracer : nullptr;

  // Checkpoint: the train-dtdg model, trained here (not part of setup_s).
  const std::string ckpt = opts.work_dir + "/serve-" + std::to_string(opts.seed) + ".stgt";
  std::vector<double> ckpt_losses, ckpt_epoch_s;
  {
    Scope phase(tr, "serve.checkpoint");
    GpmaGraph g(in.train_events);
    Rng rng(kModelSeed);
    nn::TGCNEncoder model(kFeatures, kHidden, rng);
    core::TrainConfig cfg;
    cfg.task = core::Task::kLinkPrediction;
    core::STGraphTrainer trainer(g, model, in.train_signal, cfg);
    for (int e = 0; e < kCheckpointEpochs; ++e) {
      const core::EpochStats s = trainer.train_epoch();
      ckpt_losses.push_back(s.loss);
      ckpt_epoch_s.push_back(s.seconds);
    }
    trainer.save_checkpoint(ckpt);
  }

  // Setup: stack construction through warm-up, on a fresh stack. Timed
  // kSetupReps times before the load and as often after it, so set-ups
  // sample both ends of the run. Each set-up is cut into pieces that do the
  // same work every time (construction and connect, then each warm-up
  // PREDICT), so the runner can rebuild it from each piece's fastest
  // instance.
  std::vector<std::vector<double>> setup_pieces;
  auto set_up = [&] {
    Scope phase(tr, "serve.setup");
    std::vector<double> pieces;
    int64_t b = now_ns();
    auto lap = [&] {
      const int64_t t = now_ns();
      pieces.push_back(1e-9 * static_cast<double>(t - b));
      b = t;
    };
    auto s = std::make_unique<ServeStack>(base, ckpt, in.features);
    {
      net::Client warm(kHost, s->frontend.port(), 60000.0);
      lap();
      for (int i = 0; i < kWarmupPredicts; ++i) {
        warm.predict(in.node_lists[static_cast<std::size_t>(i) % in.node_lists.size()]);
        lap();
      }
      warm.predict({});
    }
    lap();
    setup_pieces.push_back(std::move(pieces));
    return s;
  };
  std::unique_ptr<ServeStack> stack;
  for (int r = 0; r < kSetupReps; ++r) {
    stack.reset();
    if (r + 1 == kSetupReps) MemoryTracker::instance().reset_peak();
    stack = set_up();
  }

  // Lifetime counters before the load; the server is idle after its
  // warm-up, so the graph's timers are at rest.
  const serve::StatsReport rep0 = stack->server.stats();
  const net::FrontendStats fe0 = stack->frontend.stats();
  const double position0_s = stack->graph.position_timer().total_seconds();
  const double view0_s = stack->graph.view_timer().total_seconds();
  const double stall0_s = stack->graph.stall_timer().total_seconds();
  const uint64_t pf_hits0 = stack->graph.prefetch_hits();
  const uint64_t pf_misses0 = stack->graph.prefetch_misses();
  const Counters c0 = Counters::read();
  const int64_t wall0 = now_ns();

  const LoadResult load = run_load(*stack, in, opts.seconds, tr);

  const double wall_s = 1e-9 * static_cast<double>(now_ns() - wall0);
  const Counters c1 = Counters::read();

  // Last full-matrix PREDICT over the wire, then the server-side counters.
  Tensor wire_out;
  uint32_t wire_time = 0;
  {
    net::Client last(kHost, stack->frontend.port(), 60000.0);
    const net::PredictWire w = last.predict({});
    wire_out = w.outputs;
    wire_time = w.time;
  }
  const serve::StatsReport rep = stack->server.stats();
  const net::FrontendStats fe = stack->frontend.stats();
  const std::size_t peak = MemoryTracker::instance().peak_bytes();
  MemoryTracker& mt = MemoryTracker::instance();
  const double peak_tensor = mib(mt.peak_bytes(MemCategory::kTensor));
  const double peak_graph = mib(mt.peak_bytes(MemCategory::kGraph));
  const double peak_pma = mib(mt.peak_bytes(MemCategory::kPma));
  const double peak_scratch = mib(mt.peak_bytes(MemCategory::kScratch));
  stack->frontend.stop();
  stack->server.stop();
  stack->graph.current_timestamp();  // waits for an in-flight prefetch
  const double position_s = stack->graph.position_timer().total_seconds() - position0_s;
  const double view_s = stack->graph.view_timer().total_seconds() - view0_s;
  const double stall_s = stack->graph.stall_timer().total_seconds() - stall0_s;
  const uint64_t pf_hits = stack->graph.prefetch_hits() - pf_hits0;
  const uint64_t pf_misses = stack->graph.prefetch_misses() - pf_misses0;
  stack.reset();

  // Reference: an in-process Server fed the same checkpoint and deltas.
  {
    Scope phase(tr, "serve.reference");
    GpmaGraph g(base);
    Rng rng(kModelSeed);
    nn::TGCNEncoder model(kFeatures, kHidden, rng);
    serve::Server ref(g, model, serve_config());
    ref.load(ckpt);
    ref.start(in.features);
    for (uint64_t k = 0; k < load.ingests; ++k)
      ref.ingest(in.serve_events.deltas[k], in.features);
    const serve::PredictResult r = ref.predict({});
    ref.stop();
    const bool same = same_bytes(r.outputs, wire_out) && r.timestamp == wire_time;
    checks.push_back({"wire_matches_in_process", same,
                      "t=" + std::to_string(wire_time) + " vs " +
                          std::to_string(r.timestamp) + ", " +
                          std::to_string(wire_out.numel()) + " floats"});
  }
  for (int r = 0; r < kSetupReps; ++r) set_up();
  std::remove(ckpt.c_str());

  uint64_t issued = 0;
  for (const serve::TenantReport& t : rep.tenants) issued += t.issued;
  const uint64_t accounted = rep.requests + rep.stale_served + rep.failed + rep.shed_total;
  checks.push_back({"ingests_ok", load.ingest_failed == 0,
                    std::to_string(load.ingest_failed) + " of " +
                        std::to_string(load.ingests) + " ingests failed"});
  checks.push_back({"timeline_lasts_run", !load.timeline_exhausted,
                    std::to_string(load.ingests) + " ingests of " +
                        std::to_string(in.serve_events.deltas.size()) + " deltas"});
  checks.push_back({"accounting_identity", issued == accounted,
                    std::to_string(issued) + " issued, " + std::to_string(accounted) +
                        " accounted"});
  checks.push_back({"rows_match_request", load.wrong_rows == 0,
                    std::to_string(load.wrong_rows) + " responses with the wrong row count"});
  checks.push_back({"load_generator",
                    load.sender_error.empty() && load.receiver_error.empty(),
                    load.sender_error + " " + load.receiver_error});
  checks.push_back({"checkpoint_loss_finite", std::isfinite(ckpt_losses.back()),
                    hexfloat(ckpt_losses.back())});

  if (tr && !tracer.write(opts.trace_out))
    throw std::runtime_error("cannot write " + opts.trace_out);

  Json js;
  js.begin_obj();
  write_env(js, opts);
  js.key("setup_pieces_s").begin_arr();
  for (const std::vector<double>& p : setup_pieces) js.nums(p);
  js.end_arr();
  js.key("checkpoint_epoch_s").nums(ckpt_epoch_s);
  js.field("final_loss_hex", hexfloat(ckpt_losses.back()));
  js.key("losses").nums(ckpt_losses);
  js.field("peak_device_mib", mib(peak));
  js.field("open_loop_rps", kOpenLoopRps);
  js.field("ingest_hz", kIngestHz);
  js.field("closed_window", static_cast<uint64_t>(kClosedWindow));
  js.field("deltas_available", in.serve_events.deltas.size());
  js.field("open_sent", load.open_sent);
  js.key("open_lat_us").begin_arr();
  for (const std::vector<double>& c : load.open_lat_us) js.nums(c);
  js.end_arr();
  js.key("late_us").nums(load.late_us);
  js.field("open_shed", load.open_shed);
  js.field("open_ok", load.open_ok);
  js.field("open_sent_lat_sum_us", load.open_sent_lat_sum_us);
  js.field("open_failed", load.open_failed);
  js.key("closed_ok").begin_arr();
  for (uint64_t n : load.closed_ok) js.num(n);
  js.end_arr();
  js.field("closed_window_s", load.closed_window_s);
  js.field("closed_sent", load.closed_sent);
  js.field("closed_shed", load.closed_shed);
  js.field("closed_failed", load.closed_failed);
  js.field("timed_out", load.timed_out);
  js.key("ingest_ms").nums(load.ingest_ms);
  js.field("ingests", load.ingests);
  js.field("ingest_failed", load.ingest_failed);
  js.key("server").begin_obj();
  js.field("lifetime_p50_us", rep.p50_us);
  js.field("lifetime_p99_us", rep.p99_us);
  js.field("lifetime_max_queue_depth", static_cast<uint64_t>(rep.max_queue_depth));
  js.field("readers", rep.reader_utilization.size());
  write_window(js, "open", load.open_server);
  write_window(js, "burst", load.burst_server);
  js.field("cache_hits", rep.cache_hits - rep0.cache_hits);
  js.field("forward_passes", rep.forward_passes - rep0.forward_passes);
  js.field("forward_s", rep.forward_seconds - rep0.forward_seconds);
  js.field("deltas_applied", rep.deltas_applied - rep0.deltas_applied);
  js.field("ingest_s", rep.ingest_seconds - rep0.ingest_seconds);
  js.end_obj();
  js.field("frames_out", fe.frames_out - fe0.frames_out);
  js.key("gpma").begin_obj();
  js.field("position_s", position_s);
  js.field("view_s", view_s);
  js.field("stall_s", stall_s);
  js.field("prefetch_hits", pf_hits);
  js.field("prefetch_misses", pf_misses);
  js.end_obj();
  write_ops(js, "ops", c1.ops - c0.ops);
  js.field("fusion_hits", c1.fusion.cache_hits - c0.fusion.cache_hits);
  js.field("fusion_misses", c1.fusion.cache_misses - c0.fusion.cache_misses);
  js.field("launches", c1.launches - c0.launches);
  js.field("launch_items", c1.launch_items - c0.launch_items);
  js.field("cpu_s", c1.cpu_s - c0.cpu_s);
  js.field("wall_s", wall_s);
  js.key("mem_peak_mib").begin_obj();
  js.field("tensor", peak_tensor);
  js.field("graph", peak_graph);
  js.field("pma", peak_pma);
  js.field("scratch", peak_scratch);
  js.end_obj();
  write_checks(js, checks);
  js.end_obj();
  return js.write(opts.out) ? 0 : 1;
}

}  // namespace perfbench
