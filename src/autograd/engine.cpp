#include "autograd/engine.hpp"

#include <atomic>
#include <map>
#include <unordered_map>

#include "runtime/parallel.hpp"
#include "util/check.hpp"

namespace stgraph::autograd {
namespace {
std::atomic<uint64_t> g_seq{0};
}

Node::Node(std::string name) : name_(std::move(name)), seq_(++g_seq) {}

uint64_t node_count() { return g_seq.load(); }

bool needs_grad(const Tensor& t) {
  return t.defined() && (t.impl()->grad_fn || t.impl()->requires_grad);
}

bool Node::add_input(const Tensor& t) {
  InputEdge e;
  e.needs_grad = needs_grad(t);
  if (e.needs_grad && t.impl()->grad_fn) {
    e.producer = t.impl()->grad_fn;
  } else if (e.needs_grad) {
    e.leaf = t.impl();
  }
  edges_.push_back(std::move(e));
  return edges_.back().needs_grad;
}

void Node::set_output(Tensor& out) {
  STG_CHECK(out.defined(), "set_output on undefined tensor");
  bool any = false;
  for (const auto& e : edges_) any = any || e.needs_grad;
  if (!any || !NoGradGuard::grad_enabled()) return;
  out.impl()->requires_grad = true;
  out.impl()->grad_fn = shared_from_this();
}

void accumulate_grad(const std::shared_ptr<TensorImpl>& impl,
                     const Tensor& src) {
  STG_CHECK(src.defined(), "accumulating undefined gradient");
  STG_CHECK(impl->shape == src.shape(), "gradient shape ",
            shape_str(src.shape()), " != tensor shape ", shape_str(impl->shape));
  if (!impl->grad) {
    impl->grad = std::make_shared<TensorImpl>(impl->shape);
    impl->grad->data.fill(0.0f);
  }
  float* dst = impl->grad->data.data();
  const float* s = src.data();
  const std::size_t n = static_cast<std::size_t>(src.numel());
  device::parallel_for_ranges(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) dst[i] += s[i];
  });
}

void run_backward(const Tensor& root, const Tensor& grad_output) {
  STG_CHECK(root.defined(), "backward on undefined tensor");
  STG_CHECK(same_shape(root, grad_output),
            "grad_output shape must match root shape");
  if (!root.impl()->grad_fn) {
    if (root.impl()->requires_grad) accumulate_grad(root.impl(), grad_output);
    return;
  }

  // Pending gradients per node, processed in strictly decreasing sequence
  // number. Since a node's inputs were created before the node itself,
  // decreasing-seq order is a valid reverse-topological order, and a node
  // is only visited once all gradient contributions to it have arrived.
  std::map<uint64_t, std::pair<std::shared_ptr<Node>, Tensor>> ready;

  auto add_pending = [&](const std::shared_ptr<Node>& node, const Tensor& g) {
    auto it = ready.find(node->seq());
    if (it == ready.end()) {
      // Copy so later accumulation never mutates a caller-visible tensor.
      ready.emplace(node->seq(), std::make_pair(node, g.clone()));
    } else {
      Tensor& acc = it->second.second;
      float* a = acc.data();
      const float* b = g.data();
      const std::size_t n = static_cast<std::size_t>(acc.numel());
      device::parallel_for_ranges(n, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) a[i] += b[i];
      });
    }
  };

  add_pending(root.impl()->grad_fn, grad_output);

  while (!ready.empty()) {
    auto it = std::prev(ready.end());
    std::shared_ptr<Node> node = it->second.first;
    Tensor grad = it->second.second;
    ready.erase(it);

    std::vector<Tensor> input_grads = node->backward(grad);
    const auto& edges = node->edges();
    STG_CHECK(input_grads.size() == edges.size(), "node '", node->name(),
              "' returned ", input_grads.size(), " gradients for ",
              edges.size(), " inputs");
    for (size_t i = 0; i < edges.size(); ++i) {
      const InputEdge& e = edges[i];
      if (!e.needs_grad) continue;
      STG_CHECK(input_grads[i].defined(), "node '", node->name(),
                "' produced no gradient for differentiable input ", i);
      if (e.producer) {
        add_pending(e.producer, input_grads[i]);
      } else if (auto leaf = e.leaf.lock()) {
        accumulate_grad(leaf, input_grads[i]);
      }
    }
  }
}

}  // namespace stgraph::autograd
