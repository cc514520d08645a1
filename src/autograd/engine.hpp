// Reverse-mode automatic differentiation engine (tape-free, graph-based —
// the same architecture as the PyTorch autograd the paper's Python
// implementation relies on).
//
// Every differentiable op creates one autograd::Node capturing whatever it
// needs for its vector–Jacobian product. run_backward() walks nodes in
// reverse creation order (a valid reverse-topological order because node
// sequence numbers increase monotonically at construction) and routes each
// produced gradient either to a downstream node's pending buffer or into a
// leaf tensor's .grad.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace stgraph::autograd {

class Node;

/// Where a node input's gradient must flow: either into another node
/// (intermediate tensor) or into a leaf tensor's grad accumulator.
struct InputEdge {
  std::shared_ptr<Node> producer;        // non-null for intermediates
  std::weak_ptr<TensorImpl> leaf;        // set for requires-grad leaves
  bool needs_grad = false;
};

class Node : public std::enable_shared_from_this<Node> {
 public:
  explicit Node(std::string name);
  virtual ~Node() = default;

  /// Vector–Jacobian product: gradient of the loss w.r.t. this node's
  /// output → gradients w.r.t. each registered input (same order as
  /// add_input calls; entries may be undefined for non-differentiable
  /// inputs).
  virtual std::vector<Tensor> backward(const Tensor& grad_output) = 0;

  /// Register `t` as a differentiable input and return whether gradients
  /// will flow through it.
  bool add_input(const Tensor& t);

  const std::string& name() const { return name_; }
  uint64_t seq() const { return seq_; }
  const std::vector<InputEdge>& edges() const { return edges_; }

  /// Attach this node as grad_fn of the op output and mark the output as
  /// requiring grad (iff any input needs it).
  void set_output(Tensor& out);

 private:
  std::string name_;
  uint64_t seq_;
  std::vector<InputEdge> edges_;
};

/// Whether a node taking `t` as input must produce its gradient: `t` has a
/// producer node or is a requires-grad leaf (the InputEdge::needs_grad
/// rule). Backward functions test it to skip gradients nobody reads.
bool needs_grad(const Tensor& t);

/// Convenience node defined by a lambda; most ops use this.
class LambdaNode final : public Node {
 public:
  using Fn = std::function<std::vector<Tensor>(const Tensor&)>;
  LambdaNode(std::string name, Fn fn) : Node(std::move(name)), fn_(std::move(fn)) {}
  std::vector<Tensor> backward(const Tensor& grad_output) override {
    return fn_(grad_output);
  }

 private:
  Fn fn_;
};

/// Run reverse-mode AD seeded with d(root)/d(root) = grad_output.
/// Accumulates into leaf .grad buffers (+=, PyTorch semantics).
void run_backward(const Tensor& root, const Tensor& grad_output);

/// Accumulate src into impl->grad (allocating it on first use).
void accumulate_grad(const std::shared_ptr<TensorImpl>& impl, const Tensor& src);

/// Nodes created so far (used by tests asserting graph sizes).
uint64_t node_count();

}  // namespace stgraph::autograd
