#ifndef RADB_LA_KERNEL_H_
#define RADB_LA_KERNEL_H_

#include <cstddef>
#include <functional>

#include "common/result.h"
#include "la/matrix.h"
#include "la/vector.h"

namespace radb::la::kernel {

// ---------------------------------------------------------------------
// Dense kernel layer (DESIGN.md §18). The products and solves of
// la/matrix.h run on one register-blocked micro-kernel and one vector
// row update, compiled once per instruction set. Every variant gives
// every output element the sequence of roundings of a plain scalar
// loop:
//
//  * products (Multiply, TransposeSelfMultiply, VectorMatrixMultiply):
//    out_ij starts at +0.0 and, for k ascending with a_ik != 0, becomes
//    out_ij + a_ik * b_kj — a multiply, then a separate add (no FMA).
//    A zero left factor contributes nothing, so 0·∞ and 0·NaN terms
//    vanish;
//  * LU: row_r[c] - factor * row_k[c], skipping factor == 0;
//  * solves: per right-hand-side element, forward y_i = b_perm(i) -
//    l_i0*y_0 - l_i1*y_1 - ..., back x_i = (y_i - u_i,i+1*x_i+1 - ...)
//    / u_ii, with no zero skip.
//
// Results are therefore equal across variants, thread counts and the
// plus-times sparse twins. Only the bits of a NaN result (its sign and
// payload) are left open: x86 propagates the first NaN operand of an
// add and the compiler may order a commutative add's operands either
// way.
// ---------------------------------------------------------------------

/// Output rows per register tile. Parallel row bands start on
/// multiples of it.
inline constexpr size_t kTileRows = 4;

enum class Isa {
  kBaseline,  // x86-64 baseline (SSE2): 4x4 tiles of 2-lane vectors
  kAvx2,      // AVX2 without FMA: 4x8 tiles of 4-lane vectors
};

/// Whether this CPU (and OS) can run `isa`.
bool IsaSupported(Isa isa);
/// The best supported variant, picked from CPUID once per process.
Isa ActiveIsa();

/// Runs band(row_begin, row_end) over bands of output rows that start
/// on multiples of kTileRows, on the process-global thread pool — or
/// inline when there is no pool or the work is below ~64K flops. Each
/// output row is computed by one band, in the same order as inline, so
/// results do not depend on the thread count.
void ForRowBands(size_t rows, size_t flops,
                 const std::function<void(size_t, size_t)>& band);

/// The dense ops of la/matrix.h on one explicit variant: the same
/// shape checks, `la.*` counters and parallel bands as the la::
/// functions, which call these with ActiveIsa(). `isa` must be
/// supported.
Result<Matrix> Multiply(Isa isa, const Matrix& a, const Matrix& b);
Matrix TransposeSelfMultiply(Isa isa, const Matrix& a);
Result<Vector> VectorMatrixMultiply(Isa isa, const Vector& v,
                                    const Matrix& a);
Result<LuDecomposition> LuDecompose(Isa isa, const Matrix& a);
Result<Vector> Solve(Isa isa, const Matrix& a, const Vector& b);
Result<Matrix> SolveMatrix(Isa isa, const Matrix& a, const Matrix& b);
Result<Matrix> Inverse(Isa isa, const Matrix& a);

}  // namespace radb::la::kernel

#endif  // RADB_LA_KERNEL_H_
