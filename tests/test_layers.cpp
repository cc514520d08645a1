// Layer tests: numerical equivalence between STGraph's fused
// SeastarGCNConv and the baseline edge-parallel PygGCNConv (forward AND
// gradients), the TGCN cells, Linear, optimizers, and module plumbing.
#include <gtest/gtest.h>

#include <set>

#include "baseline/pyg_layers.hpp"
#include "core/executor.hpp"
#include "graph/static_graph.hpp"
#include "nn/gcn.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/optim.hpp"
#include "nn/tgcn.hpp"
#include "tensor/op_profile.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

EdgeList random_edges(uint32_t n, int count, uint64_t seed) {
  Rng rng(seed);
  EdgeList edges;
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (int i = 0; i < count * 4 && static_cast<int>(edges.size()) < count; ++i) {
    uint32_t s = rng.next_below(n), d = rng.next_below(n);
    if (s == d || !seen.insert({s, d}).second) continue;
    edges.emplace_back(s, d);
  }
  return edges;
}

void expect_close(const Tensor& a, const Tensor& b, float tol = 1e-4f,
                  const char* what = "") {
  ASSERT_TRUE(same_shape(a, b)) << what;
  for (int64_t i = 0; i < a.numel(); ++i)
    ASSERT_NEAR(a.at(i), b.at(i), tol) << what << " entry " << i;
}

TEST(Linear, ForwardMatchesManualGemm) {
  Rng rng(1);
  nn::Linear lin(3, 2, rng);
  Tensor x = Tensor::randn({4, 3}, rng);
  Tensor y = lin.forward(x);
  EXPECT_EQ(y.shape(), (Shape{4, 2}));
  Tensor manual = ops::add_bias(ops::matmul(x, lin.weight()), lin.bias());
  expect_close(y, manual);
  EXPECT_THROW(lin.forward(Tensor::zeros({4, 5})), StgError);
}

TEST(Module, ParameterCollectionAndCounts) {
  Rng rng(2);
  nn::TGCN tgcn(4, 8, rng);
  auto params = tgcn.parameters();
  // 3 convs × (weight+bias) + 3 linears × (weight+bias) = 12 tensors.
  EXPECT_EQ(params.size(), 12u);
  // Dotted names include the submodule path.
  bool found = false;
  for (const auto& p : params) found = found || p.name == "conv_z.weight";
  EXPECT_TRUE(found);
  const int64_t expect_count = 3 * (4 * 8 + 8) + 3 * (16 * 8 + 8);
  EXPECT_EQ(tgcn.parameter_count(), expect_count);
}

TEST(Module, ZeroGradClearsAll) {
  Rng rng(3);
  nn::Linear lin(2, 2, rng);
  Tensor x = Tensor::randn({3, 2}, rng);
  ops::sum(lin.forward(x)).backward();
  EXPECT_TRUE(lin.weight().grad().defined());
  EXPECT_NE(lin.weight().grad().at(0), 0.0f);
  lin.zero_grad();
  EXPECT_EQ(lin.weight().grad().at(0), 0.0f);
}

// The headline correctness test: the fused vertex-centric layer and the
// edge-parallel baseline compute the same function and the same gradients.
class GcnEquivalence : public ::testing::TestWithParam<int64_t> {};

TEST_P(GcnEquivalence, ForwardAndGradientsMatchBaseline) {
  const int64_t F = GetParam();
  const uint32_t n = 20;
  EdgeList edges = random_edges(n, 80, 7);
  Rng rng_data(11);
  Tensor x_st = Tensor::randn({n, 3}, rng_data, 1.0f, true);
  Tensor x_bl = x_st.detach();
  x_bl.set_requires_grad(true);
  std::vector<float> ew(edges.size());
  {
    Rng rng_w(13);
    for (auto& w : ew) w = rng_w.uniform(0.5f, 1.5f);
  }

  // Same seed → identical weight init in both layers.
  Rng rng_a(99), rng_b(99);
  nn::SeastarGCNConv stconv(3, F, rng_a);
  baseline::PygGCNConv blconv(3, F, rng_b);

  StaticTemporalGraph graph(n, edges, 1);
  core::TemporalExecutor exec(graph);
  exec.begin_forward_step(0);
  Tensor y_st = stconv.forward(exec, x_st, ew.data());

  baseline::CooSnapshot coo = baseline::make_coo(n, edges);
  Tensor y_bl = blconv.forward(coo, x_bl, ew.data());

  expect_close(y_st, y_bl, 1e-4f, "forward");

  // Same downstream loss; gradients must match for x, W and b.
  ops::sum(ops::mul(y_st, y_st)).backward();
  ops::sum(ops::mul(y_bl, y_bl)).backward();
  exec.verify_drained();

  expect_close(x_st.grad(), x_bl.grad(), 1e-3f, "grad_x");
  expect_close(stconv.parameters()[0].tensor.grad(),
               blconv.parameters()[0].tensor.grad(), 1e-3f, "grad_W");
  expect_close(stconv.parameters()[1].tensor.grad(),
               blconv.parameters()[1].tensor.grad(), 1e-3f, "grad_b");
}

INSTANTIATE_TEST_SUITE_P(FeatureSizes, GcnEquivalence,
                         ::testing::Values(1, 2, 8, 64, 80));

TEST(GcnEquivalence, UnweightedEdgesAlsoMatch) {
  const uint32_t n = 15;
  EdgeList edges = random_edges(n, 50, 17);
  Rng ra(5), rb(5), rd(6);
  nn::SeastarGCNConv stconv(4, 4, ra);
  baseline::PygGCNConv blconv(4, 4, rb);
  Tensor x = Tensor::randn({n, 4}, rd);

  StaticTemporalGraph graph(n, edges, 1);
  core::TemporalExecutor exec(graph);
  exec.begin_forward_step(0);
  // Unweighted: pass uniform weights to both (GCN norm only).
  std::vector<float> ones(edges.size(), 1.0f);
  Tensor y_st = stconv.forward(exec, x, ones.data());
  baseline::CooSnapshot coo = baseline::make_coo(n, edges);
  Tensor y_bl = blconv.forward(coo, x, nullptr);
  expect_close(y_st, y_bl, 1e-4f);
}

// Snapshot features need no gradient; the layer's backward then runs only
// the weight-gradient GEMM, and that gradient keeps its bits.
TEST(GcnBackward, ConstantInputCostsNoInputGradientGemm) {
  const uint32_t n = 15;
  EdgeList edges = random_edges(n, 50, 19);
  Rng rw(8), rd(9);
  nn::SeastarGCNConv conv(4, 6, rw);
  const Tensor x0 = Tensor::randn({n, 4}, rd);
  StaticTemporalGraph graph(n, edges, 1);
  auto run = [&](bool grad_x) {
    Tensor x = x0.clone().set_requires_grad(grad_x);
    core::TemporalExecutor exec(graph);
    exec.begin_forward_step(0);
    Tensor y = conv.forward(exec, x, nullptr);
    conv.zero_grad();
    const auto before = ops::profile_snapshot();
    ops::sum(ops::mul(y, y)).backward();
    exec.verify_drained();
    const uint64_t gemms = (ops::profile_snapshot() - before)
                               .count[static_cast<int>(ops::OpClass::kMatmul)];
    EXPECT_EQ(x.grad().defined(), grad_x);
    return std::pair{gemms, conv.parameters()[0].tensor.grad().to_vector()};
  };
  const auto [gemms_with_x, grad_w_with_x] = run(true);
  const auto [gemms_without_x, grad_w_without_x] = run(false);
  EXPECT_EQ(gemms_with_x, 2u);
  EXPECT_EQ(gemms_without_x, 1u);
  EXPECT_EQ(grad_w_without_x, grad_w_with_x);
}

TEST(TgcnEquivalence, CellsMatchAcrossTimesteps) {
  const uint32_t n = 12;
  EdgeList edges = random_edges(n, 40, 23);
  Rng ra(31), rb(31), rd(32);
  nn::TGCN st(3, 5, ra);
  baseline::PygTGCN bl(3, 5, rb);

  StaticTemporalGraph graph(n, edges, 4);
  core::TemporalExecutor exec(graph);
  baseline::CooSnapshot coo = baseline::make_coo(n, edges);
  std::vector<float> ones(edges.size(), 1.0f);

  // Forward-only comparison: run in inference mode so no backward state
  // accumulates on the State Stack (gradient equivalence is covered by
  // GcnEquivalence above).
  NoGradGuard ng;
  Tensor h_st, h_bl;
  for (uint32_t t = 0; t < 4; ++t) {
    Tensor x = Tensor::randn({n, 3}, rd);
    exec.begin_forward_step(t);
    h_st = st.forward(exec, x, h_st, ones.data());
    h_bl = bl.forward(coo, x, h_bl, nullptr);
    expect_close(h_st, h_bl, 2e-4f, "hidden state");
  }
  exec.verify_drained();
}

TEST(Optim, SgdDescendsQuadratic) {
  Tensor w = Tensor::from_vector({4.0f}, {1}, true);
  nn::Sgd opt({{"w", w}}, 0.1f);
  for (int i = 0; i < 50; ++i) {
    opt.zero_grad();
    ops::mse_loss(w, Tensor::zeros({1})).backward();
    opt.step();
  }
  EXPECT_NEAR(w.item(), 0.0f, 1e-3f);
}

TEST(Optim, SgdMomentumFasterOnIllConditioned) {
  // Same steps; momentum should end closer to the optimum on a shallow
  // direction.
  auto run = [](float momentum) {
    Tensor w = Tensor::from_vector({4.0f}, {1}, true);
    nn::Sgd opt({{"w", w}}, 0.02f, momentum);
    for (int i = 0; i < 30; ++i) {
      opt.zero_grad();
      ops::mse_loss(w, Tensor::zeros({1})).backward();
      opt.step();
    }
    return std::abs(w.item());
  };
  EXPECT_LT(run(0.9f), run(0.0f));
}

TEST(Optim, AdamDescendsQuadratic) {
  Tensor w = Tensor::from_vector({2.0f, -3.0f}, {2}, true);
  nn::Adam opt({{"w", w}}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    ops::mse_loss(w, Tensor::zeros({2})).backward();
    opt.step();
  }
  EXPECT_NEAR(w.at(0), 0.0f, 1e-2f);
  EXPECT_NEAR(w.at(1), 0.0f, 1e-2f);
}

TEST(Models, RegressorShapesAndState) {
  Rng rng(41);
  const uint32_t n = 10;
  nn::TGCNRegressor model(4, 6, rng);
  StaticTemporalGraph graph(n, random_edges(n, 30, 43), 2);
  core::TemporalExecutor exec(graph);
  exec.begin_forward_step(0);
  Tensor x = Tensor::randn({n, 4}, rng);
  Tensor h = model.initial_state(n);
  auto [y, h2] = model.step(exec, x, h, nullptr);
  EXPECT_EQ(y.shape(), (Shape{n, 1}));
  EXPECT_EQ(h2.shape(), (Shape{n, 6}));
}

TEST(Models, LinkLogitsAreDotProducts) {
  Tensor h = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {3, 2});
  Tensor logits = nn::link_logits(h, {0, 1}, {2, 0});
  // <h0,h2> = 1*5+2*6 = 17; <h1,h0> = 3*1+4*2 = 11.
  EXPECT_EQ(logits.to_vector(), (std::vector<float>{17, 11}));
}

}  // namespace
}  // namespace stgraph
