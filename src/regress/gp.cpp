#include "regress/gp.hpp"

#include <cmath>
#include <utility>

namespace pddl::regress {

double GaussianProcess::kernel(const Vector& a, const Vector& b) const {
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
  }
  return cfg_.signal_var *
         std::exp(-0.5 * sq / (cfg_.length_scale * cfg_.length_scale));
}

void GaussianProcess::fit(const RegressionData& data) {
  PDDL_CHECK(data.size() >= 1, "GP needs at least one observation");
  PDDL_CHECK(cfg_.length_scale > 0 && cfg_.signal_var > 0 &&
                 cfg_.noise_var >= 0,
             "invalid GpConfig");
  const std::size_t n = data.size();
  scaler_.fit(data.x);
  train_ = scaler_.transform(data.x);

  y_mean_ = 0.0;
  for (double v : data.y) y_mean_ += v;
  y_mean_ /= static_cast<double>(n);
  Vector yc(n);
  for (std::size_t i = 0; i < n; ++i) yc[i] = data.y[i] - y_mean_;

  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = kernel(train_.row(i), train_.row(j));
      k(i, j) = v;
      k(j, i) = v;
    }
    k(i, i) += cfg_.noise_var + 1e-10;  // jitter for numerical stability
  }
  chol_l_ = cholesky(std::move(k));
  // α = K⁻¹ yc via the factor: solve L (Lᵀ α) = yc.
  Vector tmp(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = yc[i];
    for (std::size_t kk = 0; kk < i; ++kk) s -= chol_l_(i, kk) * tmp[kk];
    tmp[i] = s / chol_l_(i, i);
  }
  alpha_.assign(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = tmp[ii];
    for (std::size_t kk = ii + 1; kk < n; ++kk) {
      s -= chol_l_(kk, ii) * alpha_[kk];
    }
    alpha_[ii] = s / chol_l_(ii, ii);
  }
}

GaussianProcess::Posterior GaussianProcess::posterior(
    const Vector& features) const {
  PDDL_CHECK(fitted(), "GP posterior before fit");
  const Vector x = scaler_.transform(features);
  const std::size_t n = alpha_.size();
  Vector kstar(n);
  for (std::size_t i = 0; i < n; ++i) kstar[i] = kernel(train_.row(i), x);

  Posterior p;
  p.mean = y_mean_ + dot(kstar, alpha_);
  // v = L⁻¹ k*, variance = k(x,x) − ‖v‖².
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = kstar[i];
    for (std::size_t kk = 0; kk < i; ++kk) s -= chol_l_(i, kk) * v[kk];
    v[i] = s / chol_l_(i, i);
  }
  const double var = kernel(x, x) - dot(v, v);
  p.variance = var > 0.0 ? var : 0.0;
  return p;
}

double GaussianProcess::predict(const Vector& features) const {
  return posterior(features).mean;
}

double expected_improvement(double mean, double variance, double best) {
  if (variance <= 1e-16) return 0.0;
  const double sigma = std::sqrt(variance);
  const double z = (best - mean) / sigma;
  // Standard normal pdf/cdf.
  const double pdf = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
  const double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
  const double ei = (best - mean) * cdf + sigma * pdf;
  return ei > 0.0 ? ei : 0.0;
}

void GaussianProcess::save(io::BinaryWriter& w) const {
  w.f64(cfg_.length_scale);
  w.f64(cfg_.signal_var);
  w.f64(cfg_.noise_var);
  scaler_.save(w);
  w.f64(y_mean_);
  io::write_matrix(w, train_);
  io::write_matrix(w, chol_l_);
  io::write_vector(w, alpha_);
}

void GaussianProcess::load(io::BinaryReader& r) {
  cfg_.length_scale = r.f64();
  cfg_.signal_var = r.f64();
  cfg_.noise_var = r.f64();
  scaler_.load(r);
  y_mean_ = r.f64();
  train_ = io::read_matrix(r);
  chol_l_ = io::read_matrix(r);
  alpha_ = io::read_vector(r);
  PDDL_CHECK(alpha_.size() == train_.rows() &&
                 chol_l_.rows() == train_.rows() &&
                 chol_l_.cols() == train_.rows(),
             r.what(), ": inconsistent GP posterior shapes");
}

}  // namespace pddl::regress
