#include "nn/gcn.hpp"

#include <cmath>

#include "autograd/engine.hpp"
#include "compiler/fusion.hpp"
#include "compiler/trace.hpp"
#include "core/backend.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stgraph::nn {

SeastarGCNConv::SeastarGCNConv(int64_t in_features, int64_t out_features,
                               Rng& rng, bool bias)
    : in_(in_features), out_(out_features) {
  STG_CHECK(in_ > 0 && out_ > 0, "GCN dims must be positive");
  const float bound = std::sqrt(6.0f / static_cast<float>(in_ + out_));
  weight_ = register_parameter(
      "weight", Tensor::uniform({in_, out_}, rng, -bound, bound));
  if (bias) bias_ = register_parameter("bias", Tensor::zeros({out_}));

  // The user-level vertex-centric programs: symmetric-normalized sum over
  // in-neighbors plus the self loop, with and without per-edge weights.
  compiler::Program weighted =
      compiler::trace([](compiler::VertexContext& v) -> compiler::AggExpr {
        auto msg = v.gcn_norm() * v.edge_weight() * v.src_feature(0);
        return v.agg_sum(msg).with_self_loop(v.gcn_norm());
      });
  compiler::Program plain =
      compiler::trace([](compiler::VertexContext& v) -> compiler::AggExpr {
        auto msg = v.gcn_norm() * v.src_feature(0);
        return v.agg_sum(msg).with_self_loop(v.gcn_norm());
      });
  fwd_weighted_ = compiler::compile(weighted);
  bwd_weighted_ = compiler::compile(
      compiler::differentiate(fwd_weighted_.program, /*input=*/0));
  fwd_plain_ = compiler::compile(plain);
  bwd_plain_ = compiler::compile(
      compiler::differentiate(fwd_plain_.program, /*input=*/0));
  needs_ = compiler::backward_needs(fwd_weighted_.program);
}

Tensor SeastarGCNConv::forward(core::TemporalExecutor& exec, const Tensor& x,
                               const float* edge_weights) const {
  const SnapshotView& view = exec.forward_view();
  STG_CHECK(x.dim() == 2 && x.cols() == in_, "SeastarGCNConv(", in_, "→",
            out_, ") got input ", shape_str(x.shape()));
  STG_CHECK(static_cast<uint32_t>(x.rows()) == view.num_nodes,
            "feature rows ", x.rows(), " != snapshot nodes ", view.num_nodes);
  core::Backend& backend = core::native_backend();
  const compiler::KernelSpec& fwd_kernel =
      edge_weights ? fwd_weighted_ : fwd_plain_;

  Tensor xw, out;
  {
    // Raw forward computation — autograd history is a single fused node
    // registered below, not a chain of op nodes.
    NoGradGuard ng;
    xw = ops::matmul(x, weight_);
    out = Tensor::empty({x.rows(), out_});
    compiler::KernelArgs args;
    args.view = view.in_view;
    args.in_degrees = view.in_degrees;
    args.gcn_coef = view.gcn_coef;
    const float* inputs[1] = {xw.data()};
    args.inputs = inputs;
    args.self_features = xw.data();
    args.edge_weights = edge_weights;
    args.out = out.data();
    args.num_feats = static_cast<uint32_t>(out_);
    args.producer_is_col = true;
    // Epilogue fusion: graft the bias add onto the aggregation's accumulator
    // writeback instead of a second read-modify-write pass over `out`. The
    // add sees the same two floats either way, so this is bit-identical to
    // the unfused kernel-then-add_bias sequence.
    const bool fuse_bias =
        bias_.defined() && compiler::fusion::fusion_enabled();
    if (fuse_bias) args.epilogue_bias = bias_.data();
    backend.launch_aggregation(fwd_kernel, args);
    if (bias_.defined() && !fuse_bias) out = ops::add_bias(out, bias_);
  }

  if (!NoGradGuard::grad_enabled()) return out;

  // Saved-state sets: pruned per backward-needs analysis vs conservative.
  // X always leads the saved set (the weight gradient needs it); the
  // backward node reads saved.front().
  std::vector<Tensor> pruned = {x};
  if (needs_.input_features) pruned.push_back(xw);
  // The conservative set a needs-unaware executor would keep: every
  // forward intermediate, materialized (detach() copies storage).
  std::vector<Tensor> unpruned = {x, xw, out.detach()};
  const core::StateStack::Ticket ticket =
      exec.save_for_backward(std::move(pruned), std::move(unpruned));

  const uint32_t t = exec.current_forward_timestamp();
  core::TemporalExecutor* exec_ptr = &exec;
  Tensor weight = weight_;
  Tensor bias = bias_;
  const compiler::KernelSpec* bwd = edge_weights ? &bwd_weighted_ : &bwd_plain_;
  const bool has_bias = bias_.defined();
  const int64_t out_f = out_;
  // Input features usually need no gradient (raw snapshot signals); their
  // GEMM would only be dropped by the engine.
  const bool need_x = autograd::needs_grad(x);
  const bool need_w = autograd::needs_grad(weight);

  auto node = std::make_shared<autograd::LambdaNode>(
      "seastar_gcn",
      [exec_ptr, t, ticket, weight, bias, bwd, edge_weights, has_bias,
       out_f, need_x, need_w](const Tensor& grad_out) -> std::vector<Tensor> {
        NoGradGuard ng;
        // 1. Snapshot for this timestamp via the Graph Stack.
        const SnapshotView& bview = exec_ptr->backward_view(t);
        // 2. Backward aggregation over out-neighbors (gap-aware for GPMA).
        Tensor g_xw = Tensor::empty({grad_out.rows(), out_f});
        compiler::KernelArgs args;
        args.view = bview.out_view;
        args.in_degrees = bview.in_degrees;
        args.gcn_coef = bview.gcn_coef;
        const float* inputs[1] = {grad_out.data()};
        args.inputs = inputs;
        args.self_features = grad_out.data();
        args.edge_weights = edge_weights;
        args.out = g_xw.data();
        args.num_feats = static_cast<uint32_t>(out_f);
        args.producer_is_col = false;
        core::native_backend().launch_aggregation(*bwd, args);
        // 3. Saved forward state from the State Stack (LIFO-checked).
        std::vector<Tensor> saved = exec_ptr->retrieve_saved(ticket);
        const Tensor& x_saved = saved.front();  // X always leads the set
        // Weight/bias/input gradients of the fused GEMM.
        Tensor grad_x, grad_w;
        if (need_x) grad_x = ops::matmul(g_xw, weight, false, true);
        if (need_w) grad_w = ops::matmul(x_saved, g_xw, true, false);
        Tensor grad_b;
        if (has_bias) {
          // Column sums of grad_out.
          grad_b = Tensor::zeros({out_f});
          const float* pg = grad_out.data();
          float* pb = grad_b.data();
          const int64_t rows = grad_out.rows();
          for (int64_t r = 0; r < rows; ++r)
            for (int64_t c = 0; c < out_f; ++c) pb[c] += pg[r * out_f + c];
        }
        return {grad_x, grad_w, grad_b};
      });
  node->add_input(x);
  node->add_input(weight_);
  node->add_input(bias_);  // undefined tensor → non-differentiable edge
  node->set_output(out);
  return out;
}

}  // namespace stgraph::nn
