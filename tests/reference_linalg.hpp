// Test oracles for the blocked factorization kernels (tensor/linalg.hpp):
// the unblocked column-loop Cholesky and the matmul-of-the-transpose Gram
// matrix that the blocked kernels must reproduce bit for bit.  They live
// here, not in src/, because nothing should serve from them.
#pragma once

#include <cmath>
#include <cstring>
#include <string>

#include "tensor/linalg.hpp"
#include "tensor/simd.hpp"

namespace pddl::testing_oracle {

// The column-at-a-time Cholesky: every L(i, j) starts from A(i, j) and
// subtracts L(i, k)·L(j, k) for k = 0, 1, …, j − 1 in turn.
inline Matrix reference_cholesky(const Matrix& a) {
  PDDL_CHECK(a.rows() == a.cols(), "cholesky: matrix must be square");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    PDDL_CHECK(d > 0.0, "cholesky: matrix is not positive definite (pivot ", d,
               " at ", j, ")");
    l(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

// cholesky_solve with the unblocked factor (the substitutions are the
// library's own, unchanged).
inline Vector reference_cholesky_solve(const Matrix& a, const Vector& b) {
  const Matrix l = reference_cholesky(a);
  const std::size_t n = b.size();
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

inline Matrix reference_gram(const Matrix& x) {
  return matmul(x.transposed(), x);
}

inline bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

inline bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Restores the active dispatch level on scope exit.
class DispatchGuard {
 public:
  explicit DispatchGuard(simd::DispatchLevel level)
      : prev_(simd::set_dispatch_level(level)) {}
  ~DispatchGuard() { simd::set_dispatch_level(prev_); }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  simd::DispatchLevel prev_;
};

// Runs fn() at forced-scalar and at the highest level this host runs (the
// same level twice on a host without AVX2 or under PDDL_DISPATCH=scalar).
template <typename Fn>
void at_each_dispatch_level(Fn&& fn) {
  for (const simd::DispatchLevel level :
       {simd::DispatchLevel::kScalar, simd::max_supported_level()}) {
    DispatchGuard guard(level);
    fn(simd::level_name(level));
  }
}

}  // namespace pddl::testing_oracle
