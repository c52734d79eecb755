// Linear and second-order polynomial regression.
#pragma once

#include "regress/regressor.hpp"

namespace pddl::regress {

// Ordinary least squares with intercept; optional ridge penalty.  Features
// are standardized internally, so the solver sees a well-scaled system.
class LinearRegression : public Regressor {
 public:
  explicit LinearRegression(double ridge_lambda = 0.0)
      : lambda_(ridge_lambda) {}

  void fit(const RegressionData& data) override;
  // fit() on a design matrix it takes over: x is standardized in place, so
  // the fit holds one n×f matrix, not a raw and a standardized copy.
  void fit_design(Matrix x, const Vector& y);
  bool fitted() const override { return !coef_.empty(); }
  double predict(const Vector& features) const override;
  std::string name() const override {
    return lambda_ > 0.0 ? "ridge" : "linear";
  }
  std::unique_ptr<Regressor> clone_config() const override {
    return std::make_unique<LinearRegression>(lambda_);
  }
  void save(io::BinaryWriter& w) const override;
  void load(io::BinaryReader& r) override;

  const StandardScaler& scaler() const { return scaler_; }
  const Vector& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }

 private:
  double lambda_;
  StandardScaler scaler_;
  Vector coef_;
  double intercept_ = 0.0;
};

// Degree-2 feature expansion.  `interactions` adds pairwise products x_i·x_j
// (i < j) in addition to squares, i.e. the full second-order polynomial
// basis (what sklearn's PolynomialFeatures(degree=2) produces).  The cross
// terms matter for PredictDDL: embedding×cluster products let the model
// express per-architecture scaling behaviour, cutting the relative error
// roughly 3× versus squares-only in our campaigns.
Matrix polynomial_expand(const Matrix& x, bool interactions);
Vector polynomial_expand_row(const Vector& row, bool interactions);

// Second-order polynomial regression (the paper's preferred model, §IV-B2):
// a ridge-stabilised OLS on the expanded features.
//
// predict() never materializes the expanded row.  After fit() and load() the
// scaler is folded into the coefficients (w_k = coef_k/std_k, bias =
// intercept − Σ w_k·mean_k), split into linear, square and packed
// upper-triangle cross arrays, and a prediction is one allocation-free pass
// over the raw features:
//   bias + Σ_i x_i·(lin_i + sq_i·x_i + Σ_{j>i} cross_ij·x_j).
// The folded arrays are derived state; save() writes only the inner model.
class PolynomialRegression : public Regressor {
 public:
  // The ridge default is deliberately non-trivial: the degree-2 basis over
  // standardized features extrapolates violently outside the training hull,
  // and λ=1e-3 tames the cross-term coefficients at negligible in-sample
  // cost.
  explicit PolynomialRegression(bool interactions = true,
                                double ridge_lambda = 1e-3)
      : interactions_(interactions), lambda_(ridge_lambda),
        inner_(ridge_lambda) {}

  void fit(const RegressionData& data) override;
  bool fitted() const override { return inner_.fitted(); }
  double predict(const Vector& features) const override;
  std::string name() const override { return "polynomial2"; }
  std::unique_ptr<Regressor> clone_config() const override;
  void save(io::BinaryWriter& w) const override;
  void load(io::BinaryReader& r) override;

  // The ridge model over the expanded, standardized basis.
  const LinearRegression& linear() const { return inner_; }

 private:
  void fold();

  bool interactions_;
  double lambda_;
  LinearRegression inner_;
  double bias_ = 0.0;
  Vector lin_;    // one per raw feature
  Vector sq_;     // one per raw feature
  Vector cross_;  // (i, j > i) in expansion order; empty without interactions
};

}  // namespace pddl::regress
