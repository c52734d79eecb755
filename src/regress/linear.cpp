#include "regress/linear.hpp"

#include <utility>

#include "tensor/linalg.hpp"

namespace pddl::regress {

void LinearRegression::fit(const RegressionData& data) {
  fit_design(data.x, data.y);
}

void LinearRegression::fit_design(Matrix x, const Vector& y) {
  PDDL_CHECK(y.size() > 0 && x.cols() > 0, "cannot fit on empty data");
  PDDL_CHECK(x.rows() == y.size(), "design matrix has ", x.rows(),
             " rows but ", y.size(), " labels");
  scaler_.fit(x);
  scaler_.transform_inplace(x);
  const std::size_t n = x.rows(), f = x.cols();

  // Center the target; the intercept absorbs the mean.
  double ymean = 0.0;
  for (double v : y) ymean += v;
  ymean /= static_cast<double>(n);
  Vector yc(n);
  for (std::size_t i = 0; i < n; ++i) yc[i] = y[i] - ymean;

  if (lambda_ > 0.0) {
    // Ridge: (XᵀX + λI)β = Xᵀy, factored in the Gram matrix's storage.
    Matrix xtx = gram(x);
    for (std::size_t j = 0; j < f; ++j) xtx(j, j) += lambda_;
    coef_ = cholesky_solve(std::move(xtx), matvec_transposed(x, yc));
  } else {
    coef_ = least_squares_qr(x, yc);
  }
  intercept_ = ymean;
}

double LinearRegression::predict(const Vector& features) const {
  PDDL_CHECK(fitted(), "predict before fit");
  return intercept_ + dot(coef_, scaler_.transform(features));
}

namespace {

std::size_t expanded_width(std::size_t d, bool interactions) {
  return interactions ? d * (d + 3) / 2 : 2 * d;
}

// Writes the degree-2 basis of row[0..d) to out[0..expanded_width(d)).
void expand_into(const double* row, std::size_t d, bool interactions,
                 double* out) {
  for (std::size_t i = 0; i < d; ++i) *out++ = row[i];
  for (std::size_t i = 0; i < d; ++i) *out++ = row[i] * row[i];
  if (interactions) {
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = i + 1; j < d; ++j) *out++ = row[i] * row[j];
    }
  }
}

}  // namespace

Vector polynomial_expand_row(const Vector& row, bool interactions) {
  Vector out(expanded_width(row.size(), interactions));
  expand_into(row.data(), row.size(), interactions, out.data());
  return out;
}

Matrix polynomial_expand(const Matrix& x, bool interactions) {
  PDDL_CHECK(x.rows() > 0, "cannot expand empty matrix");
  Matrix out(x.rows(), expanded_width(x.cols(), interactions));
  for (std::size_t i = 0; i < x.rows(); ++i) {
    expand_into(x.row_ptr(i), x.cols(), interactions, out.row_ptr(i));
  }
  return out;
}

void PolynomialRegression::fit(const RegressionData& data) {
  inner_.fit_design(polynomial_expand(data.x, interactions_), data.y);
  fold();
}

void PolynomialRegression::fold() {
  if (!inner_.fitted()) return;  // predict() refuses before reading the arrays
  const Vector& coef = inner_.coefficients();
  const Vector& mean = inner_.scaler().mean();
  const Vector& stddev = inner_.scaler().stddev();
  const std::size_t n = coef.size();
  std::size_t d = 0;
  while (expanded_width(d + 1, interactions_) <= n) ++d;
  PDDL_CHECK(d > 0 && expanded_width(d, interactions_) == n,
             "polynomial2: ", n, " coefficients are not a degree-2 basis");

  bias_ = inner_.intercept();
  auto folded = [&](std::size_t k) {
    const double w = coef[k] / stddev[k];
    bias_ -= w * mean[k];
    return w;
  };
  lin_.resize(d);
  sq_.resize(d);
  cross_.resize(n - 2 * d);
  for (std::size_t k = 0; k < d; ++k) lin_[k] = folded(k);
  for (std::size_t k = 0; k < d; ++k) sq_[k] = folded(d + k);
  for (std::size_t k = 0; k < cross_.size(); ++k) cross_[k] = folded(2 * d + k);
}

double PolynomialRegression::predict(const Vector& features) const {
  PDDL_CHECK(fitted(), "predict before fit");
  const std::size_t d = lin_.size();
  PDDL_CHECK(features.size() == d, "polynomial2: expected ", d,
             " features, got ", features.size());
  const double* x = features.data();
  const double* cross = cross_.data();
  double acc = bias_;
  for (std::size_t i = 0; i < d; ++i) {
    double t = lin_[i] + sq_[i] * x[i];
    if (interactions_) {
      for (std::size_t j = i + 1; j < d; ++j) t += *cross++ * x[j];
    }
    acc += x[i] * t;
  }
  return acc;
}

std::unique_ptr<Regressor> PolynomialRegression::clone_config() const {
  return std::make_unique<PolynomialRegression>(interactions_, lambda_);
}

void LinearRegression::save(io::BinaryWriter& w) const {
  w.f64(lambda_);
  scaler_.save(w);
  io::write_vector(w, coef_);
  w.f64(intercept_);
}

void LinearRegression::load(io::BinaryReader& r) {
  lambda_ = r.f64();
  scaler_.load(r);
  coef_ = io::read_vector(r);
  intercept_ = r.f64();
  PDDL_CHECK(coef_.size() == scaler_.mean().size(), r.what(),
             ": coefficient count does not match scaler width");
}

void PolynomialRegression::save(io::BinaryWriter& w) const {
  w.boolean(interactions_);
  w.f64(lambda_);
  inner_.save(w);
}

void PolynomialRegression::load(io::BinaryReader& r) {
  interactions_ = r.boolean();
  lambda_ = r.f64();
  inner_.load(r);
  fold();
}

}  // namespace pddl::regress
