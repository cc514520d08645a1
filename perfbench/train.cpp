// Training workload train-dtdg: TGCN link prediction on GPMA-stored
// synthetic wiki-talk-temporal.
//
// Untraced run: STGraphTrainer::train_epoch() — the path users call —
// timed per epoch and cut into pieces at every step() call, so the runner
// can rebuild an epoch from each piece taken on its own over the run. The
// run is split into blocks; each starts with a fresh setup (graph + model +
// trainer + one warm-up epoch), so set-up is timed in every part of the
// run, and every block must reproduce the first block's losses bit for bit.
//
// Traced run: epoch by epoch, a reference trainer's untraced epoch
// alternates with one of a driver that mirrors STGraphTrainer::run_epoch
// through public calls only, on fresh objects, with a span around every
// call. Its losses must equal the trainer's bit for bit; counters the
// library exposes are read at span boundaries; a replay of each
// timestep's aggregation kernels times the layer that has no op class of
// its own.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "compiler/fusion.hpp"
#include "compiler/kernel.hpp"
#include "compiler/trace.hpp"
#include "core/backend.hpp"
#include "core/executor.hpp"
#include "core/trainer.hpp"
#include "datasets/synthetic.hpp"
#include "gpma/gpma_graph.hpp"
#include "nn/models.hpp"
#include "nn/optim.hpp"
#include "runtime/memory_tracker.hpp"
#include "tensor/op_profile.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using stgraph::GpmaGraph;
using stgraph::MemCategory;
using stgraph::MemoryTracker;
using stgraph::Rng;
using stgraph::STGraphBase;
using stgraph::Tensor;
namespace core = stgraph::core;
namespace datasets = stgraph::datasets;
namespace nn = stgraph::nn;
namespace ops = stgraph::ops;
namespace compiler = stgraph::compiler;

constexpr uint32_t kSequenceLength = 8;
constexpr uint64_t kModelSeed = 0xBEEF;
constexpr int kBlocks = 10;
constexpr int kMinEpochs = 3;
/// Measured epochs each block of the untraced run holds at least.
constexpr int kMinBlockEpochs = 2;
constexpr int kAggReplayReps = 3;

struct Workload {
  int64_t features = 0;
  int64_t hidden = 0;
  stgraph::DtdgEvents events;
  datasets::TemporalSignal signal;

  uint32_t timestamps() const {
    return std::min(signal.num_timestamps(), events.num_timestamps());
  }
  const float* edge_weights() const {
    return signal.edge_weights.empty() ? nullptr : signal.edge_weights.data();
  }
};

Workload make_dtdg_workload(uint64_t seed) {
  Workload w;
  w.features = 16;
  w.hidden = 16;
  datasets::DynamicLoadOptions o;
  o.scale = 0.02;
  o.seed = seed;
  o.feature_size = w.features;
  w.events = datasets::make_dtdg(datasets::load_wiki_talk(o), 5.0);
  w.signal = datasets::make_dynamic_signal(w.events, o);
  return w;
}

/// Forwards to the wrapped model and stamps every step() call. The trainer
/// steps each timestep once, in order, so the stamps bound each sequence
/// of an epoch from outside the trainer. Parameters are the wrapped
/// model's, in the same order, so training is bit-identical.
class SteppedModel final : public nn::TemporalModel {
 public:
  explicit SteppedModel(std::unique_ptr<nn::TemporalModel> inner)
      : inner_(std::move(inner)) {
    register_module("model", inner_.get());
  }
  std::pair<Tensor, Tensor> step(core::TemporalExecutor& exec, const Tensor& x,
                                 const Tensor& h,
                                 const float* edge_weights) override {
    stamps_.push_back(now_ns());
    return inner_->step(exec, x, h, edge_weights);
  }
  Tensor initial_state(int64_t num_nodes) const override {
    return inner_->initial_state(num_nodes);
  }
  /// Stamps since the last call, which clears them.
  std::vector<int64_t> take_stamps() { return std::exchange(stamps_, {}); }

 private:
  std::unique_ptr<nn::TemporalModel> inner_;
  std::vector<int64_t> stamps_;
};

/// Graph + model + (optionally) trainer, built in the order the trainer
/// needs them; members are destroyed in reverse.
struct Stack {
  std::unique_ptr<GpmaGraph> graph;
  std::unique_ptr<SteppedModel> model;
  std::unique_ptr<core::STGraphTrainer> trainer;
};

Stack build_stack(const Workload& w, bool with_trainer) {
  Stack s;
  s.graph = std::make_unique<GpmaGraph>(w.events);
  Rng rng(kModelSeed);
  s.model = std::make_unique<SteppedModel>(
      std::make_unique<nn::TGCNEncoder>(w.features, w.hidden, rng));
  if (with_trainer) {
    core::TrainConfig cfg;
    cfg.epochs = 1;
    cfg.sequence_length = kSequenceLength;
    cfg.task = core::Task::kLinkPrediction;
    s.trainer = std::make_unique<core::STGraphTrainer>(*s.graph, *s.model,
                                                       w.signal, cfg);
  }
  return s;
}

void add_ops(ops::OpProfile& acc, const ops::OpProfile& d) {
  for (int i = 0; i < ops::kOpClassCount; ++i) {
    acc.count[i] += d.count[i];
    acc.bytes[i] += d.bytes[i];
    acc.nanos[i] += d.nanos[i];
  }
}

/// What one traced epoch left in the library's public counters.
struct EpochRecord {
  double wall_s = 0.0;
  double loss = 0.0;
  double position_s = 0.0, view_s = 0.0, stall_s = 0.0;
  uint64_t prefetch_hits = 0, prefetch_misses = 0;
  double positioning_s = 0.0;   // executor: critical-path graph positioning
  ops::OpProfile ops_all;       // whole epoch
  ops::OpProfile ops_fb;        // inside forward + backward spans only
  uint64_t fusion_hits = 0, fusion_misses = 0;
  uint64_t launches = 0, launch_items = 0;
  double cpu_s = 0.0;
  bool finite = true;
};

/// The traced mirror of STGraphTrainer::run_epoch(training=true) with the
/// default TrainConfig (numerical guards on, no clipping, no
/// checkpoints): the same public calls in the same order, each wrapped in
/// a span. Kept call-for-call identical so its loss is bit-identical.
class TracedTrainer {
 public:
  TracedTrainer(const Workload& w, Stack& s, Tracer& tr)
      : w_(w),
        s_(s),
        tr_(tr),
        executor_(*s.graph),
        optimizer_(s.model->parameters(), core::TrainConfig{}.lr) {
    executor_.set_state_pruning(core::TrainConfig{}.state_pruning);
  }

  EpochRecord epoch(int32_t group) {
    tr_.set_group(group);
    const uint32_t T = std::min(w_.signal.num_timestamps(),
                                s_.graph->num_timestamps());
    const uint32_t L = kSequenceLength;
    const uint32_t num_sequences = (T + L - 1) / L;
    const float* edge_weights = w_.edge_weights();
    GpmaGraph& gpma = *s_.graph;

    EpochRecord rec;
    executor_.positioning_timer().reset();
    gpma.reset_update_stats();
    const Counters c0 = Counters::read();
    const int64_t t0 = now_ns();

    double loss_total = 0.0;
    uint64_t steps = 0;
    Tensor h;
    {
      Scope epoch_span(&tr_, "epoch");
      for (uint32_t seq = 0; seq < num_sequences; ++seq) {
        Scope seq_span(&tr_, "sequence");
        const uint32_t seq_start = seq * L;
        const uint32_t seq_end = std::min(T, seq_start + L);
        std::vector<Tensor> shadow;
        {
          Scope g(&tr_, "core.guard");
          shadow.reserve(optimizer_.params().size());
          for (const nn::Parameter& p : optimizer_.params())
            shadow.push_back(p.tensor.clone());
        }
        Tensor loss_acc;
        for (uint32_t t = seq_start; t < seq_end; ++t) {
          {
            Scope sp(&tr_, "core.begin_forward_step");
            executor_.begin_forward_step(t);
          }
          if (t + 1 < seq_end) {
            Scope sp(&tr_, "gpma.prefetch");
            s_.graph->prefetch(t + 1);
          }
          {
            Scope sp(&tr_, "core.forward");
            const ops::OpProfile p0 = ops::profile_snapshot();
            const Tensor& x = w_.signal.features[t];
            if (!h.defined()) h = s_.model->initial_state(x.rows());
            auto [out, h_next] = s_.model->step(executor_, x, h, edge_weights);
            h = h_next;
            const datasets::LinkSamples& ls = w_.signal.links[t];
            Tensor logits = nn::link_logits(out, ls.src, ls.dst);
            Tensor loss_t = ops::bce_with_logits_loss(logits, ls.labels);
            loss_acc = loss_acc.defined() ? ops::add(loss_acc, loss_t) : loss_t;
            add_ops(rec.ops_fb, ops::profile_snapshot() - p0);
          }
        }
        {
          Scope sp(&tr_, "autograd.backward");
          const ops::OpProfile p0 = ops::profile_snapshot();
          optimizer_.zero_grad();
          loss_acc.backward();
          add_ops(rec.ops_fb, ops::profile_snapshot() - p0);
        }
        const double seq_loss = loss_acc.item();
        {
          Scope sp(&tr_, "core.guard");
          bool bad = !std::isfinite(seq_loss);
          for (const nn::Parameter& p : optimizer_.params()) {
            const Tensor g = p.tensor.grad();
            if (bad || !g.defined()) continue;
            const float* d = g.data();
            for (int64_t i = 0; i < g.numel(); ++i)
              if (!std::isfinite(d[i])) bad = true;
          }
          // The trainer would roll back here; the mirror has no rollback, so
          // a non-finite step makes its losses diverge and fails the check.
          if (bad) rec.finite = false;
        }
        {
          Scope sp(&tr_, "nn.optim");
          optimizer_.step();
        }
        {
          Scope sp(&tr_, "core.verify_drained");
          executor_.verify_drained();
        }
        loss_total += seq_loss;
        steps += seq_end - seq_start;
        h = h.detach();
      }
    }
    rec.wall_s = 1e-9 * static_cast<double>(now_ns() - t0);
    rec.loss = steps ? loss_total / static_cast<double>(steps) : 0.0;
    const Counters c1 = Counters::read();
    rec.ops_all = c1.ops - c0.ops;
    rec.fusion_hits = c1.fusion.cache_hits - c0.fusion.cache_hits;
    rec.fusion_misses = c1.fusion.cache_misses - c0.fusion.cache_misses;
    rec.launches = c1.launches - c0.launches;
    rec.launch_items = c1.launch_items - c0.launch_items;
    rec.cpu_s = c1.cpu_s - c0.cpu_s;
    rec.positioning_s = executor_.positioning_timer().total_seconds();
    gpma.current_timestamp();  // waits for an in-flight prefetch
    rec.position_s = gpma.position_timer().total_seconds();
    rec.view_s = gpma.view_timer().total_seconds();
    rec.stall_s = gpma.stall_timer().total_seconds();
    rec.prefetch_hits = gpma.prefetch_hits();
    rec.prefetch_misses = gpma.prefetch_misses();
    return rec;
  }

 private:
  const Workload& w_;
  Stack& s_;
  Tracer& tr_;
  core::TemporalExecutor executor_;
  nn::Adam optimizer_;
};

/// Replay every timestep's GCN aggregations (the three TGCN gate convs,
/// forward over the in-view and backward over the out-view) through
/// core::native_backend().launch_aggregation at the layer width. Returns the
/// summed launch time of one pass over all timesteps.
double replay_aggregation(const Workload& w, STGraphBase& graph) {
  auto program = [&](bool weighted) {
    return compiler::trace([weighted](compiler::VertexContext& v)
                               -> compiler::AggExpr {
      if (weighted) {
        auto msg = v.gcn_norm() * v.edge_weight() * v.src_feature(0);
        return v.agg_sum(msg).with_self_loop(v.gcn_norm());
      }
      auto msg = v.gcn_norm() * v.src_feature(0);
      return v.agg_sum(msg).with_self_loop(v.gcn_norm());
    });
  };
  const float* edge_weights = w.edge_weights();
  const compiler::KernelSpec fwd = compiler::compile(program(edge_weights != nullptr));
  const compiler::KernelSpec bwd =
      compiler::compile(compiler::differentiate(fwd.program, /*input=*/0));
  const int64_t n = graph.num_nodes();
  Rng rng(7);
  const Tensor in = Tensor::randn({n, w.hidden}, rng, 1.0f);
  Tensor out = Tensor::empty({n, w.hidden});
  const Tensor bias = Tensor::zeros({w.hidden});
  const bool fuse_bias = compiler::fusion::fusion_enabled();
  core::Backend& backend = core::native_backend();
  constexpr int kGateConvs = 3;

  double total = 0.0;
  for (uint32_t t = 0; t < w.timestamps(); ++t) {
    const stgraph::SnapshotView view = graph.get_graph(t);
    const float* inputs[1] = {in.data()};
    compiler::KernelArgs args;
    args.in_degrees = view.in_degrees;
    args.gcn_coef = view.gcn_coef;
    args.inputs = inputs;
    args.self_features = in.data();
    args.edge_weights = edge_weights;
    args.out = out.data();
    args.num_feats = static_cast<uint32_t>(w.hidden);
    const int64_t b = now_ns();
    for (int k = 0; k < kGateConvs; ++k) {
      args.view = view.in_view;
      args.producer_is_col = true;
      args.epilogue_bias = fuse_bias ? bias.data() : nullptr;
      backend.launch_aggregation(fwd, args);
      args.view = view.out_view;
      args.producer_is_col = false;
      args.epilogue_bias = nullptr;
      backend.launch_aggregation(bwd, args);
    }
    total += 1e-9 * static_cast<double>(now_ns() - b);
  }
  return total;
}

void write_epoch(Json& js, const EpochRecord& r) {
  js.begin_obj();
  js.field("wall_s", r.wall_s);
  js.field("loss_hex", hexfloat(r.loss));
  js.field("position_s", r.position_s);
  js.field("view_s", r.view_s);
  js.field("stall_s", r.stall_s);
  js.field("prefetch_hits", r.prefetch_hits);
  js.field("prefetch_misses", r.prefetch_misses);
  js.field("positioning_s", r.positioning_s);
  write_ops(js, "ops_all", r.ops_all);
  write_ops(js, "ops_fb", r.ops_fb);
  js.field("fusion_hits", r.fusion_hits);
  js.field("fusion_misses", r.fusion_misses);
  js.field("launches", r.launches);
  js.field("launch_items", r.launch_items);
  js.field("cpu_s", r.cpu_s);
  js.end_obj();
}

// ---- untraced run -------------------------------------------------------

/// One epoch's wall time cut at every step() stamp: from the epoch's start
/// to the first step, between consecutive steps, and from the last step to
/// the epoch's end. The pieces sum to the epoch's wall time, and piece i of
/// one epoch does the same work as piece i of any other.
std::vector<double> epoch_pieces(const std::vector<int64_t>& stamps, int64_t begin,
                                 int64_t end) {
  std::vector<double> out;
  out.reserve(stamps.size() + 1);
  int64_t prev = begin;
  for (const int64_t s : stamps) {
    out.push_back(1e-9 * static_cast<double>(s - prev));
    prev = s;
  }
  out.push_back(1e-9 * static_cast<double>(end - prev));
  return out;
}

/// train_epoch() timed from outside, cut into pieces at its step() stamps.
core::EpochStats timed_epoch(const Workload& w, Stack& stack,
                             std::vector<std::vector<double>>& pieces) {
  stack.model->take_stamps();
  const int64_t begin = now_ns();
  const core::EpochStats s = stack.trainer->train_epoch();
  const int64_t end = now_ns();
  const std::vector<int64_t> stamps = stack.model->take_stamps();
  if (stamps.size() != w.timestamps())
    throw std::runtime_error("expected one step per timestamp, got " +
                             std::to_string(stamps.size()));
  pieces.push_back(epoch_pieces(stamps, begin, end));
  return s;
}

int run_untraced(const Options& opts, const Workload& w) {
  std::vector<Check> checks;
  std::vector<double> construct_s, losses;
  std::vector<std::vector<double>> warmup_pieces, epoch_pieces_s;
  std::vector<std::vector<std::string>> block_hex;  // warm-up, then epochs
  uint64_t attempted = 0, failed = 0, skipped_steps = 0;
  Stack stack;
  const int64_t start = now_ns();
  const double block_ns = opts.seconds * 1e9 / kBlocks;
  for (int b = 0; b < kBlocks; ++b) {
    if (stack.trainer) skipped_steps += stack.trainer->failure_stats().skipped_steps;
    stack = Stack{};  // tear the previous setup down before timing the next
    if (b + 1 == kBlocks) MemoryTracker::instance().reset_peak();
    const int64_t t0 = now_ns();
    stack = build_stack(w, /*with_trainer=*/true);
    construct_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
    const core::EpochStats warm = timed_epoch(w, stack, warmup_pieces);
    block_hex.push_back({hexfloat(warm.loss)});
    ++attempted;
    if (!std::isfinite(warm.loss)) ++failed;

    const int64_t block_end = start + static_cast<int64_t>(block_ns * (b + 1));
    int block_epochs = 0;
    do {
      const core::EpochStats s = timed_epoch(w, stack, epoch_pieces_s);
      ++attempted;
      if (!std::isfinite(s.loss)) ++failed;
      losses.push_back(s.loss);
      block_hex.back().push_back(hexfloat(s.loss));
    } while (++block_epochs < kMinBlockEpochs || now_ns() < block_end);
  }
  skipped_steps += stack.trainer->failure_stats().skipped_steps;
  const std::size_t peak = MemoryTracker::instance().peak_bytes();

  // Every block trains from the same seed, so it must reproduce the first
  // block's losses, warm-up included, for as many epochs as both ran.
  Check repeat{"block_losses_repeat", true, ""};
  std::size_t compared = 0;
  for (std::size_t b = 1; b < block_hex.size(); ++b) {
    const std::size_t n = std::min(block_hex[b].size(), block_hex[0].size());
    for (std::size_t e = 0; e < n; ++e, ++compared) {
      if (block_hex[b][e] == block_hex[0][e]) continue;
      repeat.ok = false;
      repeat.detail += "block " + std::to_string(b) + " epoch " + std::to_string(e) +
                       ": " + block_hex[b][e] + " vs " + block_hex[0][e] + "; ";
    }
  }
  if (repeat.ok)
    repeat.detail = std::to_string(compared) + " losses equal to the first block's, warm-up " +
                    block_hex[0][0];
  checks.push_back(repeat);
  checks.push_back({"final_loss_finite", std::isfinite(losses.back()),
                    hexfloat(losses.back())});
  checks.push_back({"no_guarded_steps", skipped_steps == 0,
                    std::to_string(skipped_steps) + " skipped steps"});

  Json js;
  js.begin_obj();
  write_env(js, opts);
  js.field("timestamps", w.timestamps());
  js.field("sequence_length", kSequenceLength);
  js.key("construct_s").nums(construct_s);
  js.key("warmup_pieces_s").begin_arr();
  for (const std::vector<double>& p : warmup_pieces) js.nums(p);
  js.end_arr();
  js.key("epoch_pieces_s").begin_arr();
  for (const std::vector<double>& p : epoch_pieces_s) js.nums(p);
  js.end_arr();
  js.key("losses").nums(losses);
  js.field("final_loss_hex", hexfloat(losses.back()));
  js.field("peak_device_mib", mib(peak));
  js.field("attempted", attempted);
  js.field("failed", failed);
  write_checks(js, checks);
  js.end_obj();
  return js.write(opts.out) ? 0 : 1;
}

// ---- traced run ---------------------------------------------------------

int run_traced(const Options& opts, const Workload& w) {
  std::vector<Check> checks;
  uint64_t attempted = 0, failed = 0;
  MemoryTracker& mt = MemoryTracker::instance();

  // The trainer's own run: set-up, warm-up and one epoch give the
  // per-category memory peaks over the same window as peak_device_mib.
  mt.reset_peak();
  Stack ref = build_stack(w, /*with_trainer=*/true);
  std::vector<std::string> ref_hex;
  for (int e = 0; e < 2; ++e)
    ref_hex.push_back(hexfloat(ref.trainer->train_epoch().loss));
  const std::size_t peak_tensor = mt.peak_bytes(MemCategory::kTensor);
  const std::size_t peak_graph = mt.peak_bytes(MemCategory::kGraph);
  const std::size_t peak_pma = mt.peak_bytes(MemCategory::kPma);
  const std::size_t peak_scratch = mt.peak_bytes(MemCategory::kScratch);

  // The traced mirror on fresh objects: a warm-up epoch (group 0), then
  // pairs of one untraced train_epoch() and one traced epoch, so both see
  // the same host conditions. Traced epoch e must reproduce the trainer's
  // epoch e bit for bit.
  Tracer tracer;
  std::vector<EpochRecord> records;
  std::vector<double> ref_epoch_s;  // the untraced half of each pair
  std::vector<double> agg_s;
  {
    Stack s = build_stack(w, /*with_trainer=*/false);
    TracedTrainer traced(w, s, tracer);
    records.push_back(traced.epoch(0));
    const int64_t deadline = now_ns() + static_cast<int64_t>(opts.seconds * 1e9);
    while (static_cast<int>(ref_epoch_s.size()) < kMinEpochs || now_ns() < deadline) {
      const core::EpochStats r = ref.trainer->train_epoch();
      ref_epoch_s.push_back(r.seconds);
      ref_hex.push_back(hexfloat(r.loss));
      records.push_back(traced.epoch(static_cast<int32_t>(records.size())));
    }
    for (const EpochRecord& r : records) {
      ++attempted;
      if (!r.finite) ++failed;
    }
    for (int r = 0; r < kAggReplayReps; ++r)
      agg_s.push_back(replay_aggregation(w, *s.graph));
  }
  if (!tracer.write(opts.trace_out))
    throw std::runtime_error("cannot write " + opts.trace_out);

  Check parity{"traced_loss_bit_identical", true, ""};
  for (std::size_t e = 0; e < records.size(); ++e) {
    const std::string h = hexfloat(records[e].loss);
    if (h != ref_hex[e]) {
      parity.ok = false;
      parity.detail += "epoch " + std::to_string(e) + ": traced " + h +
                       " vs train_epoch " + ref_hex[e] + "; ";
    }
  }
  if (parity.ok) parity.detail = "final " + hexfloat(records.back().loss);
  checks.push_back(parity);
  checks.push_back({"final_loss_finite", std::isfinite(records.back().loss),
                    hexfloat(records.back().loss)});

  Json js;
  js.begin_obj();
  write_env(js, opts);
  js.field("timestamps", w.timestamps());
  js.key("ref_epoch_s").nums(ref_epoch_s);
  js.field("final_loss_hex", hexfloat(records.back().loss));
  js.key("epochs").begin_arr();
  for (const EpochRecord& r : records) write_epoch(js, r);
  js.end_arr();
  js.key("agg_replay_s").nums(agg_s);
  js.key("mem_peak_mib").begin_obj();
  js.field("tensor", mib(peak_tensor));
  js.field("graph", mib(peak_graph));
  js.field("pma", mib(peak_pma));
  js.field("scratch", mib(peak_scratch));
  js.end_obj();
  js.field("attempted", attempted);
  js.field("failed", failed);
  write_checks(js, checks);
  js.end_obj();
  return js.write(opts.out) ? 0 : 1;
}

int run(const Options& opts, const Workload& w) {
  return opts.trace ? run_traced(opts, w) : run_untraced(opts, w);
}

}  // namespace

int run_train_dtdg(const Options& opts) {
  return run(opts, make_dtdg_workload(opts.seed));
}

}  // namespace perfbench
