#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <vector>

#include "runtime/parallel.hpp"
#include "runtime/simd.hpp"
#include "tensor/op_profile.hpp"
#include "util/check.hpp"

namespace stgraph::ops::detail {
namespace {

using V = simd::NativeOps;
constexpr int64_t kMr = 6;   // output rows per register tile
constexpr int64_t kNr = 16;  // output columns per register tile
constexpr int64_t kVecs = kNr / V::kWidth;
static_assert(kNr % V::kWidth == 0, "tile width must be whole vectors");
// Below this many multiply-adds a call runs inline on the caller: waking
// the pool costs 25-80 us at 4 lanes (an empty parallel_for_ranges on a
// 4-core host), and there 1.2M multiply-adds took 39 us inline vs 47 us on
// the pool, 2.5M took 68 us vs 57 us.
constexpr int64_t kInlineMacs = int64_t{1} << 21;

// One call's operands. op(A)[i][kk] = a[i*a_row + kk*a_k] covers both A
// layouts without packing; op(B)[kk][j] = b[kk*ldb + j] is either the
// caller's B or the packed panel, whose rows are whole tiles wide.
struct Operands {
  const float* a;
  int64_t a_row, a_k;
  const float* b;
  int64_t ldb;
  float* c;
  int64_t m, n, k;
};

// C[i0..i0+R) × [j0..j0+kNr) into `c` (leading dimension ldc). Each output
// starts at +0 and takes one fmadd per kk in ascending order.
template <int R>
void tile(const Operands& g, int64_t i0, int64_t j0, float* c, int64_t ldc) {
  typename V::vf acc[R][kVecs];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v) acc[r][v] = V::zero();
  const float* ap = g.a + i0 * g.a_row;
  const float* bp = g.b + j0;
  for (int64_t kk = 0; kk < g.k; ++kk, ap += g.a_k, bp += g.ldb) {
    typename V::vf bv[kVecs];
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v) bv[v] = V::load(bp + v * V::kWidth);
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const typename V::vf av = V::set1(ap[r * g.a_row]);
#pragma GCC unroll 16
      for (int v = 0; v < kVecs; ++v) acc[r][v] = V::fmadd(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v)
      V::store(c + r * ldc + v * V::kWidth, acc[r][v]);
}

using TileFn = void (*)(const Operands&, int64_t, int64_t, float*, int64_t);
// kTiles[r - 1] computes a tile of r rows (r < kMr only at the bottom edge).
constexpr TileFn kTiles[] = {tile<1>, tile<2>, tile<3>,
                             tile<4>, tile<5>, tile<6>};
static_assert(std::size(kTiles) == kMr, "one tile function per row count");

// Work items are (row block, column tile) pairs in row-major order.
void run_items(const Operands& g, int64_t tiles, std::size_t lo,
               std::size_t hi) {
  for (std::size_t it = lo; it < hi; ++it) {
    const int64_t i0 = static_cast<int64_t>(it) / tiles * kMr;
    const int64_t j0 = static_cast<int64_t>(it) % tiles * kNr;
    const int64_t rows = std::min(kMr, g.m - i0);
    const int64_t cols = std::min(kNr, g.n - j0);
    float* c = g.c + i0 * g.n + j0;
    if (cols == kNr) {
      kTiles[rows - 1](g, i0, j0, c, g.n);
      continue;
    }
    // Right edge: the padded panel makes the tile full width; keep only
    // the columns that exist.
    float part[kMr * kNr];
    kTiles[rows - 1](g, i0, j0, part, kNr);
    for (int64_t r = 0; r < rows; ++r)
      std::memcpy(c + r * g.n, part + r * kNr, sizeof(float) * cols);
  }
}

}  // namespace

Tensor gemm(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  STG_CHECK(a.dim() == 2 && b.dim() == 2, "matmul needs rank-2 tensors, got ",
            shape_str(a.shape()), " and ", shape_str(b.shape()));
  const int64_t m = ta ? a.size(1) : a.size(0);
  const int64_t k = ta ? a.size(0) : a.size(1);
  const int64_t kb = tb ? b.size(1) : b.size(0);
  const int64_t n = tb ? b.size(0) : b.size(1);
  STG_CHECK(k == kb, "matmul inner dims mismatch: ", k, " vs ", kb, " (",
            shape_str(a.shape()), (ta ? "ᵀ" : ""), " @ ", shape_str(b.shape()),
            (tb ? "ᵀ" : ""), ")");
  Tensor out = Tensor::empty({m, n});  // every element is written below
  ProfileScope prof(OpClass::kMatmul,
                    static_cast<uint64_t>(out.numel()) * sizeof(float));
  if (m == 0 || n == 0) return out;
  const int64_t lda = a.size(1), ldb = b.size(1);
  Operands g{a.data(), ta ? 1 : lda, ta ? lda : 1, b.data(), ldb,
             out.data(), m,          n,           k};
  // op(B) is read in place when its rows are contiguous and whole tiles
  // wide; otherwise it is packed once into a zero-padded k × np panel.
  if (tb || n % kNr != 0) {
    const int64_t np = (n + kNr - 1) / kNr * kNr;
    static thread_local std::vector<float> panel;
    panel.assign(static_cast<std::size_t>(k * np), 0.0f);
    const float* pb = b.data();
    for (int64_t kk = 0; kk < k; ++kk) {
      float* row = panel.data() + kk * np;
      if (tb) {
        for (int64_t j = 0; j < n; ++j) row[j] = pb[j * ldb + kk];
      } else {
        std::memcpy(row, pb + kk * ldb, sizeof(float) * n);
      }
    }
    g.b = panel.data();
    g.ldb = np;
  }
  // Parallel over output tiles only, never over k: every output keeps one
  // accumulation order, so any lane count gives the same bits.
  const int64_t tiles = (n + kNr - 1) / kNr;
  const auto items = static_cast<std::size_t>((m + kMr - 1) / kMr * tiles);
  device::parallel_for_ranges(
      items,
      [&](std::size_t lo, std::size_t hi) { run_items(g, tiles, lo, hi); },
      /*grain=*/m * n * k < kInlineMacs ? items : 1);
  return out;
}

}  // namespace stgraph::ops::detail
