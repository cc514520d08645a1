// GEMM kernel tests. The register-blocked microkernel (tensor/gemm.cpp)
// must reproduce the textbook ikj loop it replaced bit for bit on finite
// inputs, in all four transpose cases and at any lane count; that loop is
// kept here as the oracle. The ctest variant gemm_serial reruns the suite
// with STGRAPH_NUM_THREADS=1, so both the inline and the pool schedule are
// compared against it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "runtime/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

using ops::detail::gemm;

// The former ops::detail::gemm loop, serially (its split over output rows
// changed no bit). Compiled with the project's default FP contraction, as
// the kernel was, so `crow[j] += aval * brow[j]` is fused where the target
// has FMA.
Tensor ikj_gemm(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const int64_t m = ta ? a.size(1) : a.size(0);
  const int64_t k = ta ? a.size(0) : a.size(1);
  const int64_t n = tb ? b.size(0) : b.size(1);
  Tensor out = Tensor::zeros({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  const int64_t lda = a.size(1), ldb = b.size(1);
  for (int64_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aval = ta ? pa[kk * lda + i] : pa[i * lda + kk];
      if (aval == 0.0f) continue;
      if (!tb) {
        const float* brow = pb + kk * ldb;
        for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
      } else {
        for (int64_t j = 0; j < n; ++j) crow[j] += aval * pb[j * ldb + kk];
      }
    }
  }
  return out;
}

struct Operands {
  Tensor a, b;
};

// Stored layouts for C[m,n] = op(A)·op(B): A is [k,m] when ta, B is [n,k]
// when tb. About a third of A's entries are zero (ReLU-like features).
Operands random_operands(int64_t m, int64_t n, int64_t k, bool ta, bool tb,
                         Rng& rng) {
  Tensor a = ta ? Tensor::randn({k, m}, rng) : Tensor::randn({m, k}, rng);
  Tensor b = tb ? Tensor::randn({n, k}, rng) : Tensor::randn({k, n}, rng);
  float* pa = a.data();
  for (int64_t i = 0; i < a.numel(); ++i)
    if (rng.next_below(3) == 0) pa[i] = 0.0f;
  return {a, b};
}

std::string describe(int64_t m, int64_t n, int64_t k, bool ta, bool tb) {
  std::ostringstream os;
  os << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta << " tb=" << tb;
  return os.str();
}

// memcmp equality; on failure, name the first differing element.
void expect_bits_equal(const Tensor& got, const Tensor& want,
                       const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  const auto bytes = static_cast<std::size_t>(got.numel()) * sizeof(float);
  if (std::memcmp(got.data(), want.data(), bytes) == 0) return;
  for (int64_t i = 0; i < got.numel(); ++i) {
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0) {
      ADD_FAILURE() << what << ": element " << i << " is " << got.at(i)
                    << ", oracle " << want.at(i);
      return;
    }
  }
}

void check_shape(int64_t m, int64_t n, int64_t k, Rng& rng) {
  for (int c = 0; c < 4; ++c) {
    const bool ta = c & 1, tb = c & 2;
    Operands op = random_operands(m, n, k, ta, tb, rng);
    expect_bits_equal(gemm(op.a, op.b, ta, tb), ikj_gemm(op.a, op.b, ta, tb),
                      describe(m, n, k, ta, tb));
  }
}

TEST(Gemm, TileEdgesMatchIkjOracleBitForBit) {
  // Around the 6-row and 16-column register tile and the 8-lane vector.
  Rng rng(1);
  for (int64_t m : {1, 2, 5, 6, 7, 11, 12, 13})
    for (int64_t n : {1, 7, 8, 9, 15, 16, 17, 31, 32, 33})
      for (int64_t k : {1, 2, 16, 17}) check_shape(m, n, k, rng);
}

TEST(Gemm, RandomShapesMatchIkjOracleBitForBit) {
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    const auto m = static_cast<int64_t>(1 + rng.next_below(40));
    const auto n = static_cast<int64_t>(1 + rng.next_below(40));
    const auto k = static_cast<int64_t>(1 + rng.next_below(40));
    check_shape(m, n, k, rng);
  }
}

TEST(Gemm, TrainingShapesMatchIkjOracleBitForBit) {
  // The GCN gate GEMMs of TGCN training on 2,400 vertices with F = 16 and
  // 32 features into 16 hidden units: X·W, Xᵀ·G (weight gradient) and
  // G·Wᵀ (input gradient); each in all four transpose cases.
  Rng rng(3);
  const int64_t nodes = 2400, hidden = 16;
  for (int64_t f : {16, 32}) {
    check_shape(nodes, hidden, f, rng);
    check_shape(f, hidden, nodes, rng);
    check_shape(nodes, f, hidden, rng);
  }
}

TEST(Gemm, PoolAndInlineGiveTheSameBits) {
  // 3.8M multiply-adds: enough to launch on the pool when it has more
  // than one lane, with edge tiles on both sides.
  const int64_t m = 4801, n = 40, k = 20;
  Rng rng(4);
  for (int c = 0; c < 4; ++c) {
    const bool ta = c & 1, tb = c & 2;
    const std::string what = describe(m, n, k, ta, tb);
    Operands op = random_operands(m, n, k, ta, tb, rng);
    Tensor pooled = gemm(op.a, op.b, ta, tb);
    Tensor inlined;
    {
      ThreadPool::ScopedInline one_lane;
      inlined = gemm(op.a, op.b, ta, tb);
    }
    expect_bits_equal(pooled, ikj_gemm(op.a, op.b, ta, tb), what);
    expect_bits_equal(pooled, inlined, what);
  }
}

TEST(Gemm, EmptyInnerDimensionGivesPositiveZeros) {
  for (int c = 0; c < 4; ++c) {
    const bool ta = c & 1, tb = c & 2;
    Tensor a = ta ? Tensor::empty({0, 5}) : Tensor::empty({5, 0});
    Tensor b = tb ? Tensor::empty({19, 0}) : Tensor::empty({0, 19});
    expect_bits_equal(gemm(a, b, ta, tb), Tensor::zeros({5, 19}),
                      describe(5, 19, 0, ta, tb));
  }
  EXPECT_EQ(gemm(Tensor::zeros({0, 3}), Tensor::zeros({3, 4}), false, false)
                .shape(),
            (Shape{0, 4}));
}

TEST(Gemm, RejectsMismatchedInnerDimensions) {
  EXPECT_THROW(gemm(Tensor::zeros({2, 3}), Tensor::zeros({4, 2}), false,
                    false),
               StgError);
  EXPECT_THROW(gemm(Tensor::zeros({2, 3}), Tensor::zeros({2, 4}), false,
                    true),
               StgError);
  EXPECT_THROW(gemm(Tensor::zeros({3}), Tensor::zeros({3, 2}), false, false),
               StgError);
}

// Every product is formed, zeros of A included (BLAS semantics): a
// non-finite entry reaches every output it multiplies into. The ikj loop
// skipped zero entries of A and so turned 0·Inf into nothing.
TEST(Gemm, NonFiniteEntriesReachTheirOutputs) {
  const int64_t m = 9, n = 21, k = 6;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(5);
  for (int c = 0; c < 4; ++c) {
    const bool ta = c & 1, tb = c & 2;
    const std::string what = describe(m, n, k, ta, tb);
    Operands op = random_operands(m, n, k, ta, tb, rng);
    auto a_at = [&](int64_t i, int64_t kk) -> float& {
      return op.a.data()[ta ? kk * m + i : i * k + kk];
    };
    auto b_at = [&](int64_t kk, int64_t j) -> float& {
      return op.b.data()[tb ? j * k + kk : kk * n + j];
    };
    // Inf in B at (2, 5), with op(A)'s column 2 zero in rows 0..3: those
    // rows get 0·Inf = NaN, the others +Inf.
    b_at(2, 5) = inf;
    for (int64_t i = 0; i < m; ++i) a_at(i, 2) = i < 4 ? 0.0f : 1.0f;
    // NaN in A at (7, 4): all of row 7 is NaN.
    a_at(7, 4) = nan;
    Tensor got = gemm(op.a, op.b, ta, tb);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        const float v = got.at(i, j);
        if (i == 7 || (j == 5 && i < 4)) {
          EXPECT_TRUE(std::isnan(v)) << what << " at " << i << "," << j;
        } else if (j == 5) {
          EXPECT_TRUE(std::isinf(v)) << what << " at " << i << "," << j;
        } else {
          EXPECT_TRUE(std::isfinite(v)) << what << " at " << i << "," << j;
        }
      }
    }
    // The oracle's zero skip hid the Inf from rows 0..3.
    Tensor old = ikj_gemm(op.a, op.b, ta, tb);
    EXPECT_TRUE(std::isfinite(old.at(0, 5))) << what;
  }
}

}  // namespace
}  // namespace stgraph
