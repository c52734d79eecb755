#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "reference_linalg.hpp"
#include "tensor/linalg.hpp"

namespace pddl {
namespace {

using testing_oracle::at_each_dispatch_level;
using testing_oracle::reference_cholesky;
using testing_oracle::reference_gram;
using testing_oracle::same_bits;

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix a = Matrix::randn(n, n, rng);
  Matrix spd = matmul(a.transposed(), a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

TEST(Cholesky, ReconstructsMatrix) {
  Rng rng(1);
  Matrix a = random_spd(6, rng);
  Matrix l = cholesky(a);
  Matrix rec = matmul(l, l.transposed());
  EXPECT_LT((rec - a).max_abs(), 1e-10);
}

TEST(Cholesky, LowerTriangular) {
  Rng rng(2);
  Matrix l = cholesky(random_spd(5, rng));
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = r + 1; c < 5; ++c) EXPECT_DOUBLE_EQ(l(r, c), 0.0);
  }
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3 and −1
  EXPECT_THROW(cholesky(a), Error);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(cholesky(Matrix(2, 3)), Error);
}

TEST(CholeskySolve, SolvesSpdSystem) {
  Rng rng(3);
  Matrix a = random_spd(8, rng);
  Vector x_true(8);
  for (auto& v : x_true) v = rng.gaussian();
  Vector b = matvec(a, x_true);
  Vector x = cholesky_solve(a, b);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Qr, OrthonormalColumnsAndUpperR) {
  Rng rng(4);
  Matrix a = Matrix::randn(10, 4, rng);
  QrResult qr = qr_decompose(a);
  Matrix qtq = matmul(qr.q.transposed(), qr.q);
  EXPECT_LT((qtq - Matrix::identity(4)).max_abs(), 1e-10);
  for (std::size_t r = 1; r < 4; ++r) {
    for (std::size_t c = 0; c < r; ++c) EXPECT_NEAR(qr.r(r, c), 0.0, 1e-12);
  }
  Matrix rec = matmul(qr.q, qr.r);
  EXPECT_LT((rec - a).max_abs(), 1e-10);
}

TEST(LeastSquares, RecoverPlantedCoefficientsExactlyDetermined) {
  Rng rng(5);
  Matrix a = Matrix::randn(20, 5, rng);
  Vector coef{2.0, -1.0, 0.5, 3.0, -0.25};
  Vector b = matvec(a, coef);
  Vector x = least_squares_qr(a, b);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(x[i], coef[i], 1e-9);
}

TEST(LeastSquares, MinimizesResidualWithNoise) {
  Rng rng(6);
  Matrix a = Matrix::randn(200, 3, rng);
  Vector coef{1.0, 2.0, 3.0};
  Vector b = matvec(a, coef);
  for (auto& v : b) v += rng.gaussian(0.0, 0.01);
  Vector x = least_squares_qr(a, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], coef[i], 0.01);
  // The gradient Aᵀ(Ax−b) must vanish at the optimum.
  Vector grad = matvec_transposed(a, vsub(matvec(a, x), b));
  EXPECT_LT(norm2(grad), 1e-8);
}

TEST(LeastSquares, RankDeficientFallsBackToRidge) {
  // Two identical columns: infinitely many OLS solutions; the ridge fallback
  // must return a finite solution with a small residual.
  Matrix a(10, 2);
  Rng rng(7);
  for (std::size_t i = 0; i < 10; ++i) {
    const double v = rng.gaussian();
    a(i, 0) = v;
    a(i, 1) = v;
  }
  Vector b = a.col(0);
  Vector x = least_squares_qr(a, b);
  EXPECT_TRUE(std::isfinite(x[0]) && std::isfinite(x[1]));
  Vector r = vsub(matvec(a, x), b);
  EXPECT_LT(norm2(r), 1e-3);
}

TEST(LinearSolve, MatchesKnownSolution) {
  Matrix a{{2, 1}, {1, 3}};
  Vector b{5, 10};
  Vector x = solve_linear_system(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinearSolve, SingularThrows) {
  Matrix a{{1, 2}, {2, 4}};
  EXPECT_THROW(solve_linear_system(a, Vector{1, 2}), Error);
}

TEST(LinearSolve, PivotingHandlesZeroLeadingEntry) {
  Matrix a{{0, 1}, {1, 0}};
  Vector x = solve_linear_system(a, Vector{2, 3});
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

// Parameterized property: random SPD solve residuals stay tiny across sizes.
class SpdSolveProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpdSolveProperty, ResidualIsTiny) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const std::size_t n = 2 + GetParam() % 12;
  Matrix a = random_spd(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.gaussian();
  Vector x = cholesky_solve(a, b);
  Vector r = vsub(matvec(a, x), b);
  EXPECT_LT(norm2(r), 1e-8 * (1.0 + norm2(b)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpdSolveProperty, ::testing::Range(0, 12));

TEST(LeastSquares, ScaleInvariantAcrossColumns) {
  // Columns spanning eleven orders of magnitude must still solve exactly
  // (column equilibration inside the solver).
  Rng rng(88);
  Matrix a(30, 3);
  Vector coef{5.0, 0.5, 2e-11};
  Vector b(30);
  for (std::size_t i = 0; i < 30; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = rng.uniform(0.0, 100.0);
    a(i, 2) = rng.uniform(1e10, 1e12);
    b[i] = dot(coef, a.row(i));
  }
  Vector x = least_squares_qr(a, b);
  EXPECT_NEAR(x[0], coef[0], 1e-6);
  EXPECT_NEAR(x[1], coef[1], 1e-8);
  EXPECT_NEAR(x[2] / coef[2], 1.0, 1e-6);
}

// A design matrix with exact zeros in it: every 7th entry, and one whole
// column when there are at least three.
Matrix design_with_zeros(std::size_t n, std::size_t f, Rng& rng) {
  Matrix x = Matrix::randn(n, f, rng);
  for (std::size_t i = 0; i < x.size(); i += 7) x.data()[i] = 0.0;
  if (f >= 3) {
    for (std::size_t r = 0; r < n; ++r) x(r, 2) = 0.0;
  }
  return x;
}

TEST(Gram, BitIdenticalToMatmulOfTheTranspose) {
  // Widths around the 4×8 tile and the 8-column panel, the 47-wide raw
  // feature row and the 1325-wide poly2 basis of 50 features; one row, fewer
  // rows than columns and more, several of them past the 128-row pass.
  struct Shape {
    std::size_t n, f;
  };
  const Shape shapes[] = {
      {1, 1},   {5, 1},    {300, 1},   {1, 3},      {2, 3},
      {300, 3}, {1, 7},    {3, 7},     {129, 7},    {1, 8},
      {5, 8},   {300, 8},  {1, 9},     {4, 9},      {257, 9},
      {1, 47},  {20, 47},  {300, 47},  {1, 1325},   {130, 1325},
      {1400, 1325}};
  Rng rng(41);
  for (const Shape& s : shapes) {
    const Matrix x = design_with_zeros(s.n, s.f, rng);
    const Matrix want = reference_gram(x);
    at_each_dispatch_level([&](const char* level) {
      EXPECT_TRUE(same_bits(gram(x), want))
          << level << ": n=" << s.n << " f=" << s.f;
    });
  }
}

TEST(Cholesky, BlockedFactorBitIdenticalToColumnLoop) {
  // Panel edges: one column, a partial panel, one panel exactly, one past,
  // and sizes around 64 and well past it.
  for (const std::size_t n : {1, 7, 8, 9, 63, 64, 65, 300}) {
    Rng rng(100 + n);
    Matrix a = reference_gram(Matrix::randn(n + 3, n, rng));
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 1e-3;
    const Matrix want = reference_cholesky(a);
    // Only the lower triangle may be read: junk above it changes nothing.
    Matrix junk = a;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) junk(i, j) = -1e300;
    }
    at_each_dispatch_level([&](const char* level) {
      EXPECT_TRUE(same_bits(cholesky(a), want)) << level << ": n=" << n;
      EXPECT_TRUE(same_bits(cholesky(junk), want)) << level << ": n=" << n;
    });
  }
}

// The text after "check failed: " (the file and line differ by design).
std::string failure_text(const Matrix& a, Matrix (*factor)(const Matrix&)) {
  try {
    factor(a);
  } catch (const Error& e) {
    const std::string what = e.what();
    return what.substr(what.find("check failed: "));
  }
  return "no error";
}

TEST(Cholesky, NonSpdReportsTheSamePivotValueAndIndex) {
  // Indefinite at a first-panel column, at a later panel's first column and
  // mid-panel, plus a NaN pivot.
  for (const std::size_t bad : {3, 16, 45}) {
    Rng rng(7 + bad);
    Matrix a = reference_gram(Matrix::randn(80, 70, rng));
    a(bad, bad) = -0.5;
    const std::string want = failure_text(a, &reference_cholesky);
    ASSERT_NE(want.find("(pivot "), std::string::npos) << want;
    ASSERT_NE(want.find(" at " + std::to_string(bad) + ")"),
              std::string::npos)
        << want;
    at_each_dispatch_level([&](const char* level) {
      EXPECT_EQ(failure_text(a, [](const Matrix& m) { return cholesky(m); }),
                want)
          << level;
    });
  }
  Matrix nan = Matrix::identity(20);
  nan(12, 5) = std::nan("");
  const std::string want = failure_text(nan, &reference_cholesky);
  ASSERT_NE(want.find("nan at 12)"), std::string::npos) << want;
  at_each_dispatch_level([&](const char* level) {
    EXPECT_EQ(failure_text(nan, [](const Matrix& m) { return cholesky(m); }),
              want)
        << level;
  });
}

TEST(CholeskySolve, BitIdenticalToTheColumnLoopSolve) {
  Rng rng(9);
  const std::size_t n = 131;
  Matrix a = reference_gram(Matrix::randn(150, n, rng));
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1e-3;
  Vector b(n);
  for (auto& v : b) v = rng.gaussian();
  const Vector want = testing_oracle::reference_cholesky_solve(a, b);
  at_each_dispatch_level([&](const char* level) {
    EXPECT_TRUE(same_bits(cholesky_solve(a, b), want)) << level;
  });
}

}  // namespace
}  // namespace pddl
