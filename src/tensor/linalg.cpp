#include "tensor/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "tensor/simd.hpp"

namespace pddl {

namespace {

// Rows of x packed per Gram pass: the pass's panels (kGramRows × the padded
// width, 1.4 MB at 1325 columns) stay in L2 while every tile streams them.
constexpr std::size_t kGramRows = 128;
constexpr std::size_t kTile = 8;  // panel width; tiles are 4 × kTile

}  // namespace

Matrix gram(const Matrix& x) {
  const std::size_t n = x.rows(), f = x.cols();
  // Zero is matmul's starting value too; every pass continues the sums.
  Matrix g(f, f);
  if (n == 0 || f == 0) return g;
  const std::size_t panels = (f + kTile - 1) / kTile;
  std::vector<double> pack(panels * std::min(n, kGramRows) * kTile);
  for (std::size_t r0 = 0; r0 < n; r0 += kGramRows) {
    const std::size_t rows = std::min(kGramRows, n - r0);
    // Panel p holds columns [8p, 8p + 8) of these rows, zero-padded past f.
    for (std::size_t p = 0; p < panels; ++p) {
      double* dst = pack.data() + p * rows * kTile;
      for (std::size_t r = 0; r < rows; ++r) {
        const double* src = x.row_ptr(r0 + r) + p * kTile;
        const std::size_t w = std::min(kTile, f - p * kTile);
        for (std::size_t c = 0; c < w; ++c) dst[r * kTile + c] = src[c];
        for (std::size_t c = w; c < kTile; ++c) dst[r * kTile + c] = 0.0;
      }
    }
    // Row tiles outer: each 4-row strip of g is swept left to right, so
    // its partial sums stream through the cache in address order.
    for (std::size_t i0 = 0; i0 < f; i0 += 4) {
      const double* xi =
          pack.data() + (i0 / kTile) * rows * kTile + i0 % kTile;
      for (std::size_t j0 = i0 - i0 % kTile; j0 < f; j0 += kTile) {
        const double* xj = pack.data() + (j0 / kTile) * rows * kTile;
        // Diagonal tiles also fill a few cells below the diagonal; the
        // mirror overwrites them with the same values.
        if (j0 + kTile <= f) {
          simd::gram_tile_4x8_f64(xi, xj, rows, g.row_ptr(i0) + j0, f);
          continue;
        }
        // Tiles past column f run on a copy of their in-range cells.
        double t[4 * kTile] = {};
        const std::size_t h = std::min<std::size_t>(4, f - i0), w = f - j0;
        for (std::size_t a = 0; a < h; ++a) {
          std::copy_n(g.row_ptr(i0 + a) + j0, w, t + a * kTile);
        }
        simd::gram_tile_4x8_f64(xi, xj, rows, t, kTile);
        for (std::size_t a = 0; a < h; ++a) {
          std::copy_n(t + a * kTile, w, g.row_ptr(i0 + a) + j0);
        }
      }
    }
  }
  for (std::size_t i = 0; i < f; ++i) {
    for (std::size_t j = i + 1; j < f; ++j) g(j, i) = g(i, j);
  }
  return g;
}

Matrix cholesky(Matrix a) {
  PDDL_CHECK(a.rows() == a.cols(), "cholesky: matrix must be square");
  const std::size_t n = a.rows();
  // The panel's factor rows [j0, j0 + 8) over columns k < j0, packed
  // k-major (p[k·8 + c] = L(j0 + c, k)) and zero-padded past row n.
  std::vector<double> p(n * kTile);
  // One cell's update by the columns left of its panel, in ascending k —
  // the scalar form of the tile, for cells the tiles do not cover.
  auto update_cell = [&](std::size_t i, std::size_t j0, std::size_t c) {
    double s = a(i, j0 + c);
    const double* li = a.row_ptr(i);
    for (std::size_t k = 0; k < j0; ++k) s -= li[k] * p[k * kTile + c];
    a(i, j0 + c) = s;
  };
  for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
    const std::size_t w = std::min(kTile, n - j0), jend = j0 + w;
    for (std::size_t k = 0; k < j0; ++k) {
      for (std::size_t c = 0; c < kTile; ++c) {
        p[k * kTile + c] = c < w ? a(j0 + c, k) : 0.0;
      }
    }
    // Diagonal block: update, then factor column by column, so the first
    // bad pivot is reported exactly where the unblocked loop reports it.
    for (std::size_t i = j0; i < jend; ++i) {
      for (std::size_t c = 0; j0 + c <= i; ++c) update_cell(i, j0, c);
    }
    for (std::size_t j = j0; j < jend; ++j) {
      double d = a(j, j);
      for (std::size_t k = j0; k < j; ++k) d -= a(j, k) * a(j, k);
      PDDL_CHECK(d > 0.0, "cholesky: matrix is not positive definite (pivot ",
                 d, " at ", j, ")");
      a(j, j) = std::sqrt(d);
      for (std::size_t i = j + 1; i < jend; ++i) {
        double s = a(i, j);
        for (std::size_t k = j0; k < j; ++k) s -= a(i, k) * a(j, k);
        a(i, j) = s / a(j, j);
      }
    }
    // Rows below the block, four at a time: the columns left of the panel
    // through a 4×8 tile, then the panel's own columns in order.
    for (std::size_t i0 = jend; i0 < n; i0 += 4) {
      const std::size_t rows = std::min<std::size_t>(4, n - i0);
      if (rows == 4 && w == kTile) {
        simd::cholesky_tile_4x8_f64(a.row_ptr(i0), n, p.data(), j0,
                                    a.row_ptr(i0) + j0, n);
      } else {
        for (std::size_t i = i0; i < i0 + rows; ++i) {
          for (std::size_t c = 0; c < w; ++c) update_cell(i, j0, c);
        }
      }
      for (std::size_t i = i0; i < i0 + rows; ++i) {
        double* li = a.row_ptr(i);
        for (std::size_t j = j0; j < jend; ++j) {
          double s = li[j];
          const double* lj = a.row_ptr(j);
          for (std::size_t k = j0; k < j; ++k) s -= li[k] * lj[k];
          li[j] = s / lj[j];
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(a.row_ptr(i) + i + 1, a.row_ptr(i) + n, 0.0);
  }
  return a;
}

Vector cholesky_solve(Matrix a, const Vector& b) {
  PDDL_CHECK(a.rows() == b.size(), "cholesky_solve shape mismatch");
  const Matrix l = cholesky(std::move(a));
  const std::size_t n = b.size();
  // Forward substitution: L·y = b.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  // Backward substitution: Lᵀ·x = y.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

QrResult qr_decompose(const Matrix& a) {
  const std::size_t m = a.rows(), n = a.cols();
  PDDL_CHECK(m >= n, "qr_decompose: need rows >= cols");
  // Modified Gram–Schmidt with re-orthogonalisation; stable enough for the
  // well-scaled design matrices produced by StandardScaler.
  Matrix q(m, n), r(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    Vector v = a.col(j);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < j; ++i) {
        const Vector qi = q.col(i);
        const double proj = dot(qi, v);
        r(i, j) += proj;
        axpy(v, -proj, qi);
      }
    }
    const double nv = norm2(v);
    r(j, j) = nv;
    if (nv > 0.0) {
      for (auto& x : v) x /= nv;
    }
    q.set_col(j, v);
  }
  return {std::move(q), std::move(r)};
}

Vector least_squares_qr(const Matrix& a, const Vector& b) {
  PDDL_CHECK(a.rows() == b.size(), "least_squares_qr shape mismatch");
  const std::size_t m = a.rows(), n = a.cols();
  // Column equilibration: design matrices mix columns of wildly different
  // magnitude (an intercept next to raw byte counts); scaling each column to
  // unit norm makes both the QR and the rank test scale-invariant.
  Vector col_scale(n, 1.0);
  Matrix ae = a;
  for (std::size_t j = 0; j < n; ++j) {
    double norm = 0.0;
    for (std::size_t i = 0; i < m; ++i) norm += ae(i, j) * ae(i, j);
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      col_scale[j] = norm;
      for (std::size_t i = 0; i < m; ++i) ae(i, j) /= norm;
    }
  }
  const QrResult qr = qr_decompose(ae);
  // Rank test on the equilibrated R (all diagonals are O(1) at full rank).
  bool deficient = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::fabs(qr.r(i, i)) <= 1e-10) deficient = true;
  }
  Vector x(n);
  if (deficient) {
    // Ridge fallback on the equilibrated system: AᵀA has unit diagonal, so
    // a tiny absolute λ is a tiny relative perturbation.
    Matrix ata = gram(ae);
    for (std::size_t i = 0; i < n; ++i) ata(i, i) += 1e-8;
    x = cholesky_solve(std::move(ata), matvec_transposed(ae, b));
  } else {
    // x = R⁻¹ Qᵀ b.
    const Vector qtb = matvec_transposed(qr.q, b);
    for (std::size_t ii = n; ii-- > 0;) {
      double s = qtb[ii];
      for (std::size_t k = ii + 1; k < n; ++k) s -= qr.r(ii, k) * x[k];
      x[ii] = s / qr.r(ii, ii);
    }
  }
  for (std::size_t j = 0; j < n; ++j) x[j] /= col_scale[j];
  return x;
}

Vector solve_linear_system(Matrix a, Vector b) {
  PDDL_CHECK(a.rows() == a.cols() && a.rows() == b.size(),
             "solve_linear_system shape mismatch");
  const std::size_t n = a.rows();
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a(r, col)) > std::fabs(a(piv, col))) piv = r;
    }
    PDDL_CHECK(std::fabs(a(piv, col)) > 1e-14,
               "solve_linear_system: singular matrix");
    if (piv != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(col, c), a(piv, c));
      std::swap(b[col], b[piv]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a(r, col) / a(col, col);
      if (f == 0.0) continue;
      a(r, col) = 0.0;
      for (std::size_t c = col + 1; c < n; ++c) a(r, c) -= f * a(col, c);
      b[r] -= f * b[col];
    }
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t c = ii + 1; c < n; ++c) s -= a(ii, c) * x[c];
    x[ii] = s / a(ii, ii);
  }
  return x;
}

}  // namespace pddl
