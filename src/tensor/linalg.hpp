// Direct linear-algebra solvers used by the regression engines.
//
//  * gram — xᵀx of a design matrix (the normal-equations matrix).
//  * cholesky / cholesky_solve — SPD systems (ridge / normal equations).
//  * qr_decompose / least_squares_qr — numerically safer OLS path used by
//    LinearRegression; falls back to a tiny ridge if the design matrix is
//    rank-deficient.
//  * solve_linear_system — square systems via partial-pivot LU.
#pragma once

#include "tensor/matrix.hpp"

namespace pddl {

// Both kernels below are blocked for speed yet bit-identical to their
// textbook loops at every SIMD dispatch level: each output element receives
// its products one at a time, in ascending row (gram) or column (cholesky)
// order, from the same starting value, with no FMA contraction (see
// tensor/simd.hpp).  tests/reference_linalg.hpp holds the unblocked
// oracles they are tested against.

// G = xᵀx (f×f) for an n×f x, equal bit for bit to
// matmul(x.transposed(), x) for finite x, without the transposed copy.
// The upper triangle is computed (packed 8-column panels, 4×8 register
// tiles) and mirrored into the lower one, since products commute.
Matrix gram(const Matrix& x);

// Lower-triangular L with A = L·Lᵀ, computed in A's storage (pass an
// rvalue to factor without a copy); only A's lower triangle is read.
// Left-looking, in 8-column panels updated by 4×8 tiles.  Throws
// pddl::Error at the first non-positive pivot, naming its value and column.
Matrix cholesky(Matrix a);

// Solve A·x = b for SPD A via Cholesky, factoring A's own storage.
Vector cholesky_solve(Matrix a, const Vector& b);

// Householder QR of an m×n (m ≥ n) matrix: returns thin Q (m×n) and R (n×n).
struct QrResult {
  Matrix q;  // m×n, orthonormal columns
  Matrix r;  // n×n, upper triangular
};
QrResult qr_decompose(const Matrix& a);

// Least-squares solution of min ‖A·x − b‖₂ via QR; if R is numerically
// singular, solves the ridge-regularised normal equations instead.
Vector least_squares_qr(const Matrix& a, const Vector& b);

// Square system A·x = b via LU with partial pivoting.
Vector solve_linear_system(Matrix a, Vector b);

}  // namespace pddl
