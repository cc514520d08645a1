// Micro benches for the tensor/runtime substrate: GEMM, elementwise
// chains, prefix scans and radix sort — the primitives whose throughput
// bounds everything the figure benches measure.
#include <benchmark/benchmark.h>

#include <optional>

#include "runtime/scan.hpp"
#include "runtime/sort.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {
using namespace stgraph;

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  NoGradGuard ng;
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTransposed(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  NoGradGuard ng;
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b, /*trans_a=*/true, /*trans_b=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmTransposed)->Arg(128);

// The GCN gate GEMM of TGCN training on 2,400 vertices: X[2400×f]·W[f×16]
// for f = 16 and 32, in all four transpose cases (case bit 0: ta, bit 1:
// tb; the transposed operand is stored transposed). lanes:1 runs under
// ThreadPool::ScopedInline, the inline path STGRAPH_NUM_THREADS=1 takes;
// lanes:4 runs on the pool and needs STGRAPH_NUM_THREADS=4.
void BM_GemmTrainShapes(benchmark::State& state) {
  const int64_t m = 2400, n = 16, k = state.range(0);
  const bool ta = state.range(1) & 1, tb = state.range(1) & 2;
  const auto lanes = static_cast<unsigned>(state.range(2));
  if (lanes > 1 && ThreadPool::instance().lanes() != lanes) {
    state.SkipWithError("pool lanes differ; set STGRAPH_NUM_THREADS=4");
    return;
  }
  Rng rng(7);
  NoGradGuard ng;
  Tensor a = ta ? Tensor::randn({k, m}, rng) : Tensor::randn({m, k}, rng);
  Tensor b = tb ? Tensor::randn({n, k}, rng) : Tensor::randn({k, n}, rng);
  std::optional<ThreadPool::ScopedInline> one_lane;
  if (lanes == 1) one_lane.emplace();
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b, ta, tb);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_GemmTrainShapes)
    ->ArgNames({"f", "case", "lanes"})
    ->ArgsProduct({{16, 32}, {0, 1, 2, 3}, {1, 4}});

void BM_GruGateChain(benchmark::State& state) {
  // The elementwise chain a TGCN gate performs per timestep.
  const int64_t n = state.range(0);
  Rng rng(3);
  NoGradGuard ng;
  Tensor x = Tensor::randn({n, 32}, rng);
  Tensor h = Tensor::randn({n, 32}, rng);
  for (auto _ : state) {
    Tensor z = ops::sigmoid(ops::add(x, h));
    Tensor out = ops::add(ops::mul(z, h),
                          ops::mul(ops::one_minus(z), ops::tanh_op(x)));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 32);
}
BENCHMARK(BM_GruGateChain)->Arg(1000)->Arg(100000);

void BM_InclusiveScan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<uint64_t> in(n), out(n);
  for (auto& v : in) v = rng.next_below(100);
  for (auto _ : state) {
    device::inclusive_scan(in.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InclusiveScan)->Arg(1 << 14)->Arg(1 << 20);

void BM_RadixSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<uint64_t> base(n);
  for (auto& v : base) v = rng.next_u64() >> 24;  // 40-bit edge-ish keys
  for (auto _ : state) {
    std::vector<uint64_t> keys = base;
    device::radix_sort(keys);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RadixSort)->Arg(1 << 14)->Arg(1 << 18);

void BM_AutogradOverhead(benchmark::State& state) {
  // Same gate chain with taping + backward: the bookkeeping the paper's
  // training loop pays per timestep.
  const int64_t n = 10000;
  Rng rng(6);
  Tensor x = Tensor::randn({n, 16}, rng, 1.0f, /*requires_grad=*/true);
  Tensor h = Tensor::randn({n, 16}, rng);
  for (auto _ : state) {
    Tensor z = ops::sigmoid(ops::add(x, h));
    Tensor loss = ops::sum(ops::mul(z, h));
    loss.backward();
    x.zero_grad();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * n * 16);
}
BENCHMARK(BM_AutogradOverhead);

}  // namespace

BENCHMARK_MAIN();
