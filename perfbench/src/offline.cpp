// offline_train: the paper's Fig. 8 pipeline for CIFAR-10 from scratch —
// GHN training, then the measurement campaign, then the regressor fit —
// scored on an 80/20 held-out split (the fig09 protocol).  It is the only
// workload where autograd, the GHN trainer and the simulator do the work;
// set-up time elsewhere excludes GHN training.
//
// After training, the held-out rows are queried through the library
// (PredictDdl::submit), closed-loop, for latency and throughput: what a
// caller of the freshly trained predictor sees.
#include <cmath>
#include <filesystem>

#include "bench.hpp"
#include "ghn/ghn2.hpp"
#include "simulator/campaign.hpp"

namespace perfbench {

using namespace pddl;

namespace {

constexpr double kSplitTrain = 0.8;
// fig09's split seed: the held-out rows are the same in every run, so the
// seed moves the measurements, not which models are held out.
constexpr std::uint64_t kSplitSeed = 2023;

// Deterministic shuffled 80/20 split of the campaign (fig09 protocol).
void split(const std::vector<sim::Measurement>& ms, std::uint64_t seed,
           std::vector<sim::Measurement>& train,
           std::vector<sim::Measurement>& test) {
  Rng rng(seed);
  std::vector<std::size_t> perm(ms.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::shuffle(perm.begin(), perm.end(), rng);
  const auto n_train =
      static_cast<std::size_t>(kSplitTrain * static_cast<double>(ms.size()));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    (i < n_train ? train : test).push_back(ms[perm[i]]);
  }
}

}  // namespace

void run_offline_train(const Options& opt, Tracer& tracer, Report& report) {
  const workload::DatasetDescriptor cifar = workload::cifar10();
  // The seed picks the campaign's measurement noise.  The GHN's training
  // corpus is the production one, so the GHN trained here is the one the
  // serving workloads use.
  sim::CampaignConfig cc = serving_campaign("cifar10", "p100");
  cc.seed = 2023 + opt.seed;

  // ---- set-up, repeated: what a restart of the trained predictor pays ----
  // Library construction, the build's cached GHN, the campaign, the split
  // and the fit: every stage of the pipeline except GHN training, which
  // train_s measures.
  const int reps = opt.smoke ? 1 : 5;
  std::vector<double> setup;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = Tracer::now_ns();
    Span span(tracer, "setup");
    Library restart(opt);
    const double trained = ensure_ghn(restart.pddl, cifar, opt);
    std::vector<sim::Measurement> train, test;
    split(sim::run_campaign(restart.simulator, cc, restart.pddl.pool()), kSplitSeed, train,
          test);
    restart.pddl.fit_predictor("cifar10", train);
    setup.push_back(seconds_since(t0) - trained);
  }

  // ---- the pipeline from scratch, timed end to end ----
  const auto lib = std::make_unique<Library>(opt);
  core::PredictDdl& pddl = lib->pddl;
  std::vector<sim::Measurement> train, test;
  const std::int64_t p0 = Tracer::now_ns();
  double ghn_s = 0.0, campaign_s = 0.0, fit_s = 0.0;
  {
    Span pipe(tracer, "offline.pipeline");
    std::int64_t t = Tracer::now_ns();
    {
      Span span(tracer, "ghn.train", 0, pipe.id());
      pddl.ensure_ghn(cifar);
    }
    ghn_s = seconds_since(t);
    t = Tracer::now_ns();
    std::vector<sim::Measurement> ms;
    {
      Span span(tracer, "simulator.run_campaign", 0, pipe.id());
      ms = sim::run_campaign(lib->simulator, cc, pddl.pool());
    }
    campaign_s = seconds_since(t);
    t = Tracer::now_ns();
    {
      Span span(tracer, "regress.fit_predictor", 0, pipe.id());
      split(ms, kSplitSeed, train, test);
      pddl.fit_predictor("cifar10", train);
    }
    fit_s = seconds_since(t);
  }
  const double train_s = seconds_since(p0);

  // Held-out error, and the GHN's provenance against the build's cache.
  const Vector pred = pddl.predict_measurements("cifar10", test);
  double err = 0.0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    err += std::fabs(pred[i] - test[i].time_s) / test[i].time_s;
  }
  const double mre = err / static_cast<double>(test.size());
  record_provenance(report, opt, pddl, {"cifar10"});
  const std::filesystem::path cached =
      std::filesystem::path(opt.ghn_cache) / "ghn_cifar10.bin";
  if (!opt.smoke && std::filesystem::exists(cached)) {
    const bool same = ghn::ghn_checksum(*ghn::load_ghn(cached.string())) ==
                      pddl.registry().model_checksum("cifar10");
    report.detail("ghn_matches_build_cache", same ? "true" : "false");
  }

  // ---- queries against the fresh predictor ----
  std::vector<core::PredictRequest> queries;
  for (const auto& m : test) {
    core::PredictRequest q;
    q.workload = workload::DlWorkload(m.model, cifar, m.batch_size, m.epochs);
    q.cluster = cluster::make_uniform_cluster(m.sku, m.servers);
    queries.push_back(std::move(q));
  }
  // Correctness: the request path must agree with the evaluation path.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double p = pddl.submit(queries[i]).predicted_time_s;
    if (std::fabs(p - pred[i]) > 1e-9 * std::max(1.0, std::fabs(pred[i]))) ++mismatches;
  }
  report.check(mismatches == 0, std::to_string(mismatches) +
                                    " held-out queries disagree with predict_measurements");
  report.check(std::isfinite(mre) && mre > 0.0, "held-out error is not a positive number");

  // Closed loop: passes over the held-out rows, back to back.
  std::vector<double> lat_ms, pass_rate, pass_p50;
  std::uint64_t attempted = 0, failed = 0;
  const std::int64_t q0 = Tracer::now_ns();
  while (seconds_since(q0) < opt.seconds || pass_rate.empty()) {
    const std::int64_t r0 = Tracer::now_ns();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::int64_t c0 = Tracer::now_ns();
      double p = 0.0;
      {
        Span span(tracer, "core.submit", i);
        p = pddl.submit(queries[i]).predicted_time_s;
      }
      lat_ms.push_back(static_cast<double>(Tracer::now_ns() - c0) / 1e6);
      ++attempted;
      if (!(p == pred[i])) ++failed;
    }
    pass_rate.push_back(static_cast<double>(queries.size()) / seconds_since(r0));
    pass_p50.push_back(median(std::vector<double>(
        lat_ms.end() - static_cast<std::ptrdiff_t>(queries.size()), lat_ms.end())));
  }
  const Summary lat = summarize(lat_ms);
  report.count(attempted, failed);
  report.check(failed == 0, "a held-out query returned a different prediction");

  report.metric("setup_s", median(setup), "s");
  report.metric("p50_ms", best_time(pass_p50), "ms");
  report.metric("preds_per_s", best_rate(pass_rate), "1/s");
  report.metric("train_s", train_s, "s");
  report.metric("mre", mre, "ratio");

  report.detail("pipeline_s", json_obj({{"ghn_train", json_num(ghn_s)},
                                        {"campaign", json_num(campaign_s)},
                                        {"fit", json_num(fit_s)}}));
  report.detail("split", json_obj({{"train_rows", json_num(static_cast<double>(train.size()))},
                                   {"test_rows", json_num(static_cast<double>(test.size()))}}));
  report.detail("query_latency_ms", json_summary(lat));
  report.detail("setup_repetitions_s", json_list(setup));

  if (tracer.on()) {
    report.metric("ghn.train_s", ghn_s, "s");
    report.metric("simulator.campaign_s", campaign_s, "s");
    report.metric("regress.fit_s", fit_s, "s");
    layer_probes(pddl, tracer, report);
  }
}

}  // namespace perfbench
