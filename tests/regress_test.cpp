#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "reference_linalg.hpp"
#include "regress/dataset.hpp"
#include "regress/grid_search.hpp"
#include "regress/linear.hpp"
#include "regress/log_target.hpp"
#include "regress/mlp_regressor.hpp"
#include "regress/svr.hpp"

namespace pddl::regress {
namespace {

// y = 3x₀ − 2x₁ + 0.5 + noise.
RegressionData linear_data(std::size_t n, double noise, std::uint64_t seed) {
  Rng rng(seed);
  RegressionData d;
  d.x = Matrix::randn(n, 2, rng);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.y[i] = 3.0 * d.x(i, 0) - 2.0 * d.x(i, 1) + 0.5 +
             rng.gaussian(0.0, noise);
  }
  return d;
}

// y = x₀² + x₁ (quadratic: linear models fail, PR/SVR/MLP succeed).
RegressionData quadratic_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RegressionData d;
  d.x = Matrix::uniform(n, 2, rng, -2.0, 2.0);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.y[i] = d.x(i, 0) * d.x(i, 0) + d.x(i, 1);
  }
  return d;
}

TEST(Split, RespectsFractionAndPartitions) {
  const auto data = linear_data(100, 0.0, 1);
  const auto split = train_test_split(data, 0.8, 7);
  EXPECT_EQ(split.train.size(), 80u);
  EXPECT_EQ(split.test.size(), 20u);
  std::vector<bool> seen(100, false);
  for (auto i : split.train_idx) seen[i] = true;
  for (auto i : split.test_idx) {
    EXPECT_FALSE(seen[i]) << "row in both partitions";
    seen[i] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Split, DeterministicBySeed) {
  const auto data = linear_data(50, 0.0, 2);
  const auto a = train_test_split(data, 0.67, 3);
  const auto b = train_test_split(data, 0.67, 3);
  EXPECT_EQ(a.train_idx, b.train_idx);
  const auto c = train_test_split(data, 0.67, 4);
  EXPECT_NE(a.train_idx, c.train_idx);
}

TEST(Split, InvalidFractionThrows) {
  const auto data = linear_data(10, 0.0, 1);
  EXPECT_THROW(train_test_split(data, 0.0, 1), Error);
  EXPECT_THROW(train_test_split(data, 1.0, 1), Error);
}

TEST(KFold, CoversAllIndicesOncePerFold) {
  const auto folds = kfold(25, 5, 9);
  ASSERT_EQ(folds.size(), 5u);
  std::vector<int> val_count(25, 0);
  for (const auto& f : folds) {
    EXPECT_EQ(f.train_idx.size() + f.val_idx.size(), 25u);
    for (auto i : f.val_idx) ++val_count[i];
  }
  for (int c : val_count) EXPECT_EQ(c, 1);
}

TEST(Metrics, KnownValues) {
  Vector pred{2, 4, 6};
  Vector actual{1, 4, 8};
  EXPECT_NEAR(rmse(pred, actual), std::sqrt((1.0 + 0.0 + 4.0) / 3.0), 1e-12);
  EXPECT_NEAR(mean_relative_error(pred, actual),
              (1.0 / 1 + 0.0 / 4 + 2.0 / 8) / 3.0, 1e-12);
  EXPECT_NEAR(mean_prediction_ratio(pred, actual),
              (2.0 / 1 + 1.0 + 6.0 / 8) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(r_squared(actual, actual), 1.0);
}

TEST(Scaler, StandardizesToZeroMeanUnitVar) {
  Rng rng(4);
  Matrix x = Matrix::randn(500, 3, rng);
  for (std::size_t i = 0; i < x.rows(); ++i) x(i, 1) = x(i, 1) * 10 + 5;
  StandardScaler s;
  s.fit(x);
  Matrix t = s.transform(x);
  for (std::size_t j = 0; j < 3; ++j) {
    double mean = 0, var = 0;
    for (std::size_t i = 0; i < t.rows(); ++i) mean += t(i, j);
    mean /= t.rows();
    for (std::size_t i = 0; i < t.rows(); ++i) {
      var += (t(i, j) - mean) * (t(i, j) - mean);
    }
    var /= t.rows();
    EXPECT_NEAR(mean, 0.0, 1e-10);
    EXPECT_NEAR(var, 1.0, 1e-10);
  }
}

TEST(Scaler, ConstantFeatureLeftFinite) {
  Matrix x(10, 1, 7.0);
  StandardScaler s;
  s.fit(x);
  Vector t = s.transform(Vector{7.0});
  EXPECT_TRUE(std::isfinite(t[0]));
  EXPECT_DOUBLE_EQ(t[0], 0.0);
}

TEST(Linear, RecoversPlantedModel) {
  LinearRegression lr;
  const auto data = linear_data(200, 0.01, 5);
  lr.fit(data);
  // Check predictions rather than raw coefficients (scaling changes them).
  EXPECT_NEAR(lr.predict({1.0, 1.0}), 3.0 - 2.0 + 0.5, 0.05);
  EXPECT_NEAR(lr.predict({0.0, 0.0}), 0.5, 0.05);
  EXPECT_NEAR(lr.predict({-1.0, 2.0}), -3.0 - 4.0 + 0.5, 0.05);
}

TEST(Linear, PredictBeforeFitThrows) {
  LinearRegression lr;
  EXPECT_THROW(lr.predict({1.0, 2.0}), Error);
}

TEST(Linear, RejectsLabelCountMismatch) {
  RegressionData d = linear_data(10, 0.1, 3);
  d.y.pop_back();
  EXPECT_THROW(LinearRegression().fit(d), Error);
  EXPECT_THROW(LinearRegression(1e-3).fit(d), Error);
}

TEST(Linear, RidgeShrinksButStaysClose) {
  LinearRegression ridge(1.0);
  const auto data = linear_data(500, 0.01, 6);
  ridge.fit(data);
  EXPECT_NEAR(ridge.predict({1.0, 0.0}), 3.5, 0.2);
  EXPECT_EQ(ridge.name(), "ridge");
}

TEST(Linear, FailsOnQuadraticWherePolynomialSucceeds) {
  const auto data = quadratic_data(400, 7);
  const auto split = train_test_split(data, 0.8, 1);
  LinearRegression lr;
  PolynomialRegression pr;
  lr.fit(split.train);
  pr.fit(split.train);
  const double lr_rmse = rmse(lr.predict_batch(split.test.x), split.test.y);
  const double pr_rmse = rmse(pr.predict_batch(split.test.x), split.test.y);
  EXPECT_GT(lr_rmse, 5.0 * pr_rmse);
  EXPECT_LT(pr_rmse, 0.05);
}

TEST(Polynomial, ExpansionLayout) {
  Vector row{2.0, 3.0};
  Vector sq = polynomial_expand_row(row, false);
  ASSERT_EQ(sq.size(), 4u);
  EXPECT_EQ(sq, (Vector{2, 3, 4, 9}));
  Vector inter = polynomial_expand_row(row, true);
  ASSERT_EQ(inter.size(), 5u);
  EXPECT_DOUBLE_EQ(inter[4], 6.0);
}

TEST(Polynomial, InteractionsCaptureCrossTerm) {
  // y = x₀·x₁ needs the interaction column.
  Rng rng(8);
  RegressionData d;
  d.x = Matrix::uniform(300, 2, rng, -1, 1);
  d.y.resize(300);
  for (std::size_t i = 0; i < 300; ++i) d.y[i] = d.x(i, 0) * d.x(i, 1);
  // Explicit near-zero ridge: this test checks expressiveness of the basis,
  // not the regularised default.
  PolynomialRegression squares_only(false, 1e-10);
  PolynomialRegression with_inter(true, 1e-10);
  squares_only.fit(d);
  with_inter.fit(d);
  const double e1 = rmse(squares_only.predict_batch(d.x), d.y);
  const double e2 = rmse(with_inter.predict_batch(d.x), d.y);
  EXPECT_LT(e2, 1e-6);
  EXPECT_GT(e1, 0.1);
}

// Off-centre features (so the folded bias carries the scaler means), a
// constant column (whose stddev the scaler floors to 1.0) and a positive
// nonlinear target.
RegressionData poly_parity_data(std::size_t n, std::size_t d,
                                std::uint64_t seed) {
  Rng rng(seed);
  RegressionData data;
  data.x = Matrix::uniform(n, d, rng, 0.5, 3.0);
  for (std::size_t i = 0; i < n; ++i) data.x(i, 2) = 2.5;
  data.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    data.y[i] = std::exp(0.3 * data.x(i, 0) - 0.2 * data.x(i, 1) * data.x(i, 3) +
                         0.05 * data.x(i, d - 1) * data.x(i, d - 1)) +
                rng.uniform(0.0, 0.1);
  }
  return data;
}

TEST(Polynomial, FoldedPredictMatchesExpandStandardizeDotOracle) {
  for (const bool interactions : {true, false}) {
    SCOPED_TRACE(interactions ? "interactions" : "squares only");
    const auto data = poly_parity_data(200, 9, 21);
    PolynomialRegression pr(interactions);
    pr.fit(data);
    ASSERT_DOUBLE_EQ(pr.linear().scaler().stddev()[2], 1.0);

    // Training rows, then fresh rows outside the training hull.
    Rng rng(22);
    const Matrix probes = Matrix::uniform(50, 9, rng, -1.0, 5.0);
    std::vector<Vector> rows;
    for (std::size_t i = 0; i < data.size(); ++i) rows.push_back(data.x.row(i));
    for (std::size_t i = 0; i < probes.rows(); ++i) rows.push_back(probes.row(i));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      // The path predict() replaced: expand, standardize, dot.
      const double oracle =
          pr.linear().predict(polynomial_expand_row(rows[i], interactions));
      EXPECT_NEAR(pr.predict(rows[i]), oracle, 1e-12 * std::abs(oracle))
          << "row " << i;
    }
  }
}

TEST(Polynomial, LogTargetSaveLoadPredictsBitIdentically) {
  const auto data = poly_parity_data(150, 6, 23);
  LogTargetRegressor saved(std::make_unique<PolynomialRegression>());
  saved.fit(data);
  std::stringstream ss;
  io::BinaryWriter w(ss);
  saved.save(w);

  LogTargetRegressor loaded(std::make_unique<PolynomialRegression>());
  io::BinaryReader r(ss, "poly2 round trip");
  loaded.load(r);
  ASSERT_TRUE(loaded.fitted());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Vector x = data.x.row(i);
    EXPECT_EQ(loaded.predict(x), saved.predict(x)) << "row " << i;
  }
  EXPECT_THROW(loaded.predict(Vector(5, 1.0)), Error);
  EXPECT_THROW(loaded.predict(Vector(7, 1.0)), Error);
}

// The ridge fit as it ran before the blocked kernels: expand, standardize
// into a copy, Gram matrix as the matmul of the transpose, column-loop
// Cholesky.  PolynomialRegression must reproduce it bit for bit.
struct ReferenceFit {
  Vector mean, stddev, coef;
  double intercept = 0.0;
};

ReferenceFit reference_poly2_fit(const Matrix& raw, const Vector& y,
                                 bool interactions, double lambda) {
  const Matrix expanded = polynomial_expand(raw, interactions);
  StandardScaler scaler;
  scaler.fit(expanded);
  const Matrix xs = scaler.transform(expanded);
  const std::size_t n = xs.rows(), f = xs.cols();
  double ymean = 0.0;
  for (double v : y) ymean += v;
  ymean /= static_cast<double>(n);
  Vector yc(n);
  for (std::size_t i = 0; i < n; ++i) yc[i] = y[i] - ymean;
  Matrix xtx = testing_oracle::reference_gram(xs);
  for (std::size_t j = 0; j < f; ++j) xtx(j, j) += lambda;
  return {scaler.mean(), scaler.stddev(),
          testing_oracle::reference_cholesky_solve(xtx,
                                                   matvec_transposed(xs, yc)),
          ymean};
}

void expect_same_fit(const LinearRegression& got, const ReferenceFit& want,
                     const std::string& what) {
  using testing_oracle::same_bits;
  EXPECT_TRUE(same_bits(got.coefficients(), want.coef)) << what;
  EXPECT_TRUE(same_bits(got.intercept(), want.intercept)) << what;
  EXPECT_TRUE(same_bits(got.scaler().mean(), want.mean)) << what;
  EXPECT_TRUE(same_bits(got.scaler().stddev(), want.stddev)) << what;
}

TEST(Polynomial, FitBitIdenticalToTheUnblockedReferencePath) {
  struct Case {
    std::size_t n, d;
    bool interactions;
  };
  // Small shapes with and without cross terms, then the production shape:
  // 50 raw features (1325 basis columns) over 992 campaign rows.
  const Case cases[] = {{40, 9, true}, {200, 9, true}, {200, 9, false},
                        {992, 50, true}};
  for (const Case& c : cases) {
    const auto data = poly_parity_data(c.n, c.d, 31 + c.d);
    const double lambda = 1e-3;
    const ReferenceFit want =
        reference_poly2_fit(data.x, data.y, c.interactions, lambda);
    testing_oracle::at_each_dispatch_level([&](const char* level) {
      PolynomialRegression pr(c.interactions, lambda);
      pr.fit(data);
      expect_same_fit(pr.linear(), want,
                      std::string(level) + " n=" + std::to_string(c.n) +
                          " d=" + std::to_string(c.d));
    });
  }
}

TEST(Polynomial, LogTargetFitBitIdenticalToTheUnblockedReferencePath) {
  const auto data = poly_parity_data(300, 20, 37);
  Vector logged(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) logged[i] = std::log(data.y[i]);
  const ReferenceFit want = reference_poly2_fit(data.x, logged, true, 1e-3);
  testing_oracle::at_each_dispatch_level([&](const char* level) {
    LogTargetRegressor lt(std::make_unique<PolynomialRegression>());
    lt.fit(data);
    const auto& poly = dynamic_cast<const PolynomialRegression&>(lt.inner());
    expect_same_fit(poly.linear(), want, level);
  });
}

TEST(SvrRbf, FitsQuadraticWithinTube) {
  const auto data = quadratic_data(150, 9);
  SvrConfig cfg;
  cfg.c = 100.0;
  cfg.gamma = 0.3;
  cfg.epsilon = 0.05;
  Svr svr(cfg);
  svr.fit(data);
  EXPECT_GT(svr.num_support_vectors(), 0u);
  const double err = rmse(svr.predict_batch(data.x), data.y);
  // Labels are standardized internally; ε=0.05 tube in standardized units.
  EXPECT_LT(err, 0.25);
}

TEST(SvrLinear, MatchesLinearTrend) {
  const auto data = linear_data(120, 0.01, 10);
  SvrConfig cfg;
  cfg.kernel = SvrKernel::kLinear;
  cfg.c = 100.0;
  cfg.epsilon = 0.05;
  Svr svr(cfg);
  svr.fit(data);
  EXPECT_NEAR(svr.predict({1.0, 1.0}), 1.5, 0.3);
  EXPECT_NEAR(svr.predict({2.0, -1.0}), 8.5, 0.6);
}

TEST(Svr, DualFeasibilityHolds) {
  // Σ β_i = 0 follows from the equality constraint of the dual.
  const auto data = quadratic_data(80, 11);
  Svr svr;
  svr.fit(data);
  EXPECT_TRUE(svr.fitted());
  EXPECT_GT(svr.iterations_used(), 0);
}

TEST(Mlp, FitsQuadratic) {
  const auto data = quadratic_data(300, 12);
  MlpRegressorConfig cfg;
  cfg.hidden_neurons = 5;
  cfg.epochs = 1500;
  cfg.learning_rate = 2e-2;
  MlpRegressor mlp(cfg);
  mlp.fit(data);
  const double err = rmse(mlp.predict_batch(data.x), data.y);
  EXPECT_LT(err, 0.35);
}

TEST(Mlp, CloneConfigPreservesHyperparameters) {
  MlpRegressorConfig cfg;
  cfg.hidden_neurons = 4;
  MlpRegressor mlp(cfg);
  auto clone = mlp.clone_config();
  EXPECT_EQ(clone->name(), "mlp");
  EXPECT_FALSE(clone->fitted());
}

TEST(GridSearch, PicksInteractionModelForCrossTermTarget) {
  Rng rng(13);
  RegressionData d;
  d.x = Matrix::uniform(200, 2, rng, -1, 1);
  d.y.resize(200);
  for (std::size_t i = 0; i < 200; ++i) d.y[i] = 2.0 * d.x(i, 0) * d.x(i, 1);
  std::vector<std::unique_ptr<Regressor>> cands;
  cands.push_back(std::make_unique<LinearRegression>());
  cands.push_back(std::make_unique<PolynomialRegression>(true));
  ThreadPool pool(4);
  auto result = grid_search(cands, d, pool);
  EXPECT_EQ(result.best->name(), "polynomial2");
  EXPECT_LT(result.best_cv_rmse, 0.01);
  EXPECT_EQ(result.candidates_evaluated, 2u);
}

TEST(GridSearch, SvrGridMatchesPaperRanges) {
  const auto grid = svr_grid();
  // 4C × 3ε linear + 4C × 3ε × 4γ rbf = 12 + 48.
  EXPECT_EQ(grid.size(), 60u);
  bool has_linear = false, has_rbf = false;
  for (const auto& g : grid) {
    const auto* svr = dynamic_cast<const Svr*>(g.get());
    ASSERT_NE(svr, nullptr);
    EXPECT_GE(svr->config().c, 1.0);
    EXPECT_LE(svr->config().c, 1000.0);
    EXPECT_GE(svr->config().epsilon, 0.05);
    EXPECT_LE(svr->config().epsilon, 0.2);
    if (svr->config().kernel == SvrKernel::kLinear) has_linear = true;
    if (svr->config().kernel == SvrKernel::kRbf) {
      has_rbf = true;
      EXPECT_GE(svr->config().gamma, 0.05);
      EXPECT_LE(svr->config().gamma, 0.5);
    }
  }
  EXPECT_TRUE(has_linear);
  EXPECT_TRUE(has_rbf);
}

TEST(GridSearch, MlpGridHasOneToFiveNeurons) {
  const auto grid = mlp_grid();
  ASSERT_EQ(grid.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto* mlp = dynamic_cast<const MlpRegressor*>(grid[i].get());
    ASSERT_NE(mlp, nullptr);
    EXPECT_EQ(mlp->config().hidden_neurons, i + 1);
  }
}

class SplitRatioProperty : public ::testing::TestWithParam<double> {};

TEST_P(SplitRatioProperty, LinearFitsAtEverySplitRatio) {
  // Mirrors the Fig. 11 protocol: 50/50, 67/33, 80/20 all train well on
  // clean linear data.
  const auto data = linear_data(300, 0.02, 21);
  const auto split = train_test_split(data, GetParam(), 3);
  LinearRegression lr;
  lr.fit(split.train);
  const double err = rmse(lr.predict_batch(split.test.x), split.test.y);
  EXPECT_LT(err, 0.1);
}

INSTANTIATE_TEST_SUITE_P(PaperRatios, SplitRatioProperty,
                         ::testing::Values(0.5, 0.67, 0.8));

}  // namespace
}  // namespace pddl::regress
