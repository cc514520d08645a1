// Raw GEMM, no autograd: one register-blocked SIMD microkernel for all four
// (ta, tb) cases (docs/internals.md, "GEMM").
//
// Each kMr×16 output tile is held in vector registers (two 8-lane vectors
// per row on AVX2) while k streams past. op(A) is never packed: each element
// is broadcast straight from `a` in either layout. op(B) rows are read in
// place when B is not transposed and n is a multiple of 16; otherwise op(B)
// is packed once into a zero-padded k × n panel in a reused thread-local
// buffer. The pool runs the tiles when a call has enough multiply-adds to
// pay for a launch; smaller calls run inline.
//
// Bit-identity. Every output starts at +0 and takes one multiply-add per k,
// in ascending k — the float sequence of the textbook ikj loop. The
// multiply-add is fused exactly where a compiler contracts the scalar
// `c += a * b` (simd::fmadd: x86 with FMA, arm64), which is why this file
// stays outside the -ffp-contract=off list. Only output tiles are split
// across lanes, never k, so any lane count gives the same bits. The fused
// and unfused training paths call this one kernel, so it cannot break their
// parity either. tests/test_gemm.cpp holds the ikj loop as the oracle.
//
// Non-finite inputs. Every a(i,kk)·b(kk,j) product is formed, zeros
// included, as BLAS does: an Inf or NaN in B reaches every output of its
// column, and one in A every output of its row, as Inf or NaN (0·Inf is
// NaN). The former ikj loop skipped zero entries of A, which hid 0·Inf.
// On finite inputs that skip changed no bit, with one corner: an
// accumulator that has underflowed to −0 through a fused multiply-add
// turns +0 when a later zero entry of A meets a positive B entry
// (−0 + +0 = +0).
#pragma once

#include "tensor/tensor.hpp"

namespace stgraph::ops::detail {

/// C[M,N] = op(A)·op(B), row-major. ta/tb transpose the operand reads.
Tensor gemm(const Tensor& a, const Tensor& b, bool ta, bool tb);

}  // namespace stgraph::ops::detail
