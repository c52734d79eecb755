// whatif_sweep: the NAS / capacity-planning user, on the library path with
// no service.
//
// A seeded stream of novel DARTS candidate graphs at CIFAR-10 resolution
// (none is in any cache) is embedded once per candidate with the f32
// serving engine; then K cluster / strategy configurations (SKU × servers ×
// batch × dp/pp/tp) are featurized and predicted.  K is large enough that
// feature assembly and the poly2 regressor take most of the time — the only
// workload where they dominate.  The error against the simulator is
// computed outside the timed section.
#include <cmath>

#include "bench.hpp"
#include "ghn/infer.hpp"
#include "graph/darts.hpp"

namespace perfbench {

using namespace pddl;

namespace {

// The sweep's input size: N = kRounds × kRoundCandidates distinct
// candidates, each priced on all K configs.  The sweep passes over them
// until --seconds is spent (at least once, so every candidate is checked).
constexpr std::size_t kRoundCandidates = 32;
constexpr std::size_t kRounds = 32;
constexpr std::size_t kCheckedPerCandidate = 4;  // configs priced by the simulator
constexpr double kPredictionRelTol = 1e-4;

struct Config {
  cluster::ClusterSpec cluster;
  workload::DlWorkload workload;
};

// K = 2 SKUs × 16 cluster sizes × 4 batch sizes × 5 strategies = 640.
std::vector<Config> configs() {
  std::vector<Config> out;
  for (const char* sku : {"p100", "e5_2630"}) {
    for (int servers = 1; servers <= 16; ++servers) {
      const auto c = cluster::make_uniform_cluster(sku, servers);
      for (int batch : {16, 32, 64, 128}) {
        for (const char* par : {"dp", "pp2x4", "pp4x8", "tp2", "tp4"}) {
          out.push_back({c, workload::DlWorkload("candidate", workload::cifar10(),
                                                 batch, 10,
                                                 workload::parallelism_from_key(par))});
        }
      }
    }
  }
  return out;
}

graph::DartsConfig cifar_darts() {
  graph::DartsConfig darts;
  darts.input = workload::cifar10().input;
  darts.num_classes = workload::cifar10().num_classes;
  return darts;
}

// The NAS user's offline step (as in examples/nas_ranker): measure a few
// architectures of its own search space once, on a sample of the configs,
// and fit the predictor on their embeddings.  The architectures and the
// sample are fixed, so every run sets up the same predictor; the seeded
// candidates are disjoint from them.
FitTimes fit_search_space_predictor(Library& lib, const std::vector<Config>& cfgs,
                                    Tracer& tracer) {
  constexpr std::size_t kSeenGraphs = 2048, kConfigsPerGraph = 1;
  FitTimes t;
  const std::vector<graph::CompGraph> seen =
      graph::sample_darts_corpus(kSeenGraphs, /*seed=*/4242, cifar_darts());
  Rng rng(4243);
  std::vector<std::pair<std::size_t, std::size_t>> rows;  // (graph, config)
  for (std::size_t g = 0; g < seen.size(); ++g) {
    for (std::size_t j = 0; j < kConfigsPerGraph; ++j) {
      rows.emplace_back(g, rng.uniform_int(cfgs.size()));
    }
  }
  regress::RegressionData data;
  data.y.resize(rows.size());
  std::int64_t t0 = Tracer::now_ns();
  {
    Span span(tracer, "simulator.run");
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const Config& c = cfgs[rows[r].second];
      data.y[r] = lib.simulator.run(c.workload, seen[rows[r].first], c.cluster, rng).total_s;
    }
  }
  t.campaign_s = seconds_since(t0);
  t0 = Tracer::now_ns();
  {
    Span span(tracer, "regress.fit_predictor_raw");
    std::vector<Vector> embeds;
    for (const auto& g : seen) embeds.push_back(lib.pddl.registry().embedding("cifar10", g));
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const Config& c = cfgs[rows[r].second];
      const Vector f = lib.pddl.features().assemble_features(embeds[rows[r].first],
                                                             c.workload, c.cluster);
      if (r == 0) data.x = Matrix(rows.size(), f.size());
      data.x.set_row(r, f);
    }
    lib.pddl.fit_predictor_raw("cifar10", data);
  }
  t.fit_s = seconds_since(t0);
  return t;
}

}  // namespace

void run_whatif_sweep(const Options& opt, Tracer& tracer, Report& report) {
  const std::vector<Config> cfgs = configs();
  // ---- set-up, repeated: GHN load, measurements, regressor fit ----
  // Three repetitions, not five as elsewhere: each takes about 5 s.
  const int reps = opt.smoke ? 1 : 3;
  std::vector<double> setup, campaign, fit, both;
  double trained = 0.0;
  std::unique_ptr<Library> lib;
  for (int r = 0; r < reps; ++r) {
    lib.reset();
    const std::int64_t t0 = Tracer::now_ns();
    Span span(tracer, "setup");
    lib = std::make_unique<Library>(opt);
    const double t = ensure_ghn(lib->pddl, workload::cifar10(), opt);
    trained += t;
    const FitTimes ft = fit_search_space_predictor(*lib, cfgs, tracer);
    campaign.push_back(ft.campaign_s);
    fit.push_back(ft.fit_s);
    both.push_back(ft.campaign_s + ft.fit_s);
    setup.push_back(seconds_since(t0) - t);
  }
  core::PredictDdl& pddl = lib->pddl;
  record_provenance(report, opt, pddl, {"cifar10"});

  // ---- inputs (not timed) ----
  const graph::DartsConfig darts = cifar_darts();
  Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 101);
  const std::size_t rounds = opt.smoke ? 2 : kRounds;
  std::vector<graph::CompGraph> pool;
  for (std::size_t i = 0; i < rounds * kRoundCandidates; ++i) {
    pool.push_back(graph::sample_darts_architecture(rng, darts));
  }
  // Per candidate, a seeded sample of configs whose predictions are kept for
  // the simulator error and the library-reference check.
  std::vector<std::array<std::size_t, kCheckedPerCandidate>> checked(pool.size());
  for (auto& c : checked) {
    for (auto& k : c) k = rng.uniform_int(cfgs.size());
  }
  const auto engine = pddl.registry().inference("cifar10", ghn::Precision::kF32);
  const auto regressor = pddl.engine_if_ready("cifar10");

  // One candidate: embed once, featurize and predict every config.  Reports
  // the embed time and keeps the checked configs' predictions when asked.
  auto price = [&](std::size_t cand, std::uint64_t request, double* embed_ms,
                   std::array<double, kCheckedPerCandidate>* kept) {
    const graph::CompGraph& g = pool[cand];
    Span top(tracer, "whatif.candidate", request);
    const std::int64_t t0 = Tracer::now_ns();
    Vector emb;
    {
      Span span(tracer, "ghn.embed_into", request, top.id());
      engine->embed_into(g, emb);
    }
    if (embed_ms != nullptr) *embed_ms = static_cast<double>(Tracer::now_ns() - t0) / 1e6;
    std::vector<Vector> feats(cfgs.size());
    {
      Span span(tracer, "core.assemble_features", request, top.id());
      for (std::size_t k = 0; k < cfgs.size(); ++k) {
        feats[k] = pddl.features().assemble_features(emb, cfgs[k].workload,
                                                     cfgs[k].cluster);
      }
    }
    std::vector<double> preds(cfgs.size());
    {
      Span span(tracer, "regress.predict", request, top.id());
      for (std::size_t k = 0; k < cfgs.size(); ++k) {
        preds[k] = regressor->predict(feats[k]);
      }
    }
    bool finite = true;
    for (double p : preds) finite = finite && std::isfinite(p) && p > 0.0;
    if (kept != nullptr) {
      const auto& sel = checked[cand];
      for (std::size_t j = 0; j < sel.size(); ++j) (*kept)[j] = preds[sel[j]];
    }
    return finite;
  };

  // ---- sweep: rounds of kRoundCandidates × K configs, back to back ----
  std::vector<double> round_rate, round_p50, cand_ms, embed_ms;
  std::vector<std::array<double, kCheckedPerCandidate>> kept(pool.size());
  double embed_total = 0.0, sweep_total = 0.0;
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t next = 0; next < pool.size() || sweep_total < opt.seconds;) {
    const std::int64_t r0 = Tracer::now_ns();
    for (std::size_t c = 0; c < kRoundCandidates; ++c, ++next) {
      double e = 0.0;
      const std::int64_t c0 = Tracer::now_ns();
      const std::size_t cand = next % pool.size();
      const bool ok = price(cand, next, &e, next < pool.size() ? &kept[cand] : nullptr);
      cand_ms.push_back(static_cast<double>(Tracer::now_ns() - c0) / 1e6);
      embed_ms.push_back(e);
      embed_total += e;
      ++attempted;
      if (!ok) ++failed;
    }
    const double round_s = seconds_since(r0);
    sweep_total += round_s;
    round_rate.push_back(static_cast<double>(kRoundCandidates * cfgs.size()) / round_s);
    round_p50.push_back(median(std::vector<double>(cand_ms.end() - kRoundCandidates,
                                                   cand_ms.end())));
  }
  const Summary lat = summarize(cand_ms);
  report.count(attempted, failed);

  // ---- accuracy and correctness, outside the timed sections ----
  double err_sum = 0.0;
  std::size_t err_n = 0, mismatches = 0;
  for (std::size_t c = 0; c < kept.size(); ++c) {
    const graph::CompGraph& g = pool[c];
    const Vector ref_emb = pddl.registry().embedding("cifar10", g);
    for (std::size_t j = 0; j < kCheckedPerCandidate; ++j) {
      const Config& cfg = cfgs[checked[c][j]];
      const double truth =
          lib->simulator.expected(cfg.workload, g, cfg.cluster).total_s;
      err_sum += std::fabs(kept[c][j] - truth) / truth;
      ++err_n;
      const double ref = regressor->predict(
          pddl.features().assemble_features(ref_emb, cfg.workload, cfg.cluster));
      if (std::fabs(kept[c][j] - ref) > kPredictionRelTol * std::max(1.0, std::fabs(ref))) {
        ++mismatches;
      }
    }
  }
  report.check(failed == 0, "non-finite or non-positive predictions");
  report.check(mismatches == 0, std::to_string(mismatches) +
                                    " what-if predictions differ from the f64 library "
                                    "reference by more than 1e-4");
  report.check(err_n > 0, "no prediction was checked against the simulator");

  report.metric("setup_s", median(setup), "s");
  report.metric("p50_ms", best_time(round_p50), "ms");
  report.metric("preds_per_s", best_rate(round_rate), "1/s");
  report.metric("train_s", best_time(both), "s");
  report.metric("mre", err_n ? err_sum / static_cast<double>(err_n) : 0.0, "ratio");

  report.detail("input_size",
                json_obj({{"N_per_round", json_num(kRoundCandidates)},
                          {"K_configs", json_num(static_cast<double>(cfgs.size()))},
                          {"rounds", json_num(static_cast<double>(round_rate.size()))},
                          {"candidates_swept", json_num(static_cast<double>(cand_ms.size()))},
                          {"predictions_checked", json_num(static_cast<double>(err_n))}}));
  report.detail("candidate_latency_ms", json_summary(lat));
  report.detail("setup_repetitions_s", json_list(setup));

  if (tracer.on()) {
    const Summary em = summarize(embed_ms);
    report.metric("whatif.embed_share", embed_total / 1e3 / sweep_total, "ratio");
    report.metric("whatif.embed_share.base", sweep_total, "s");
    report.metric("ghn.embed_ms.p50", em.p50, "ms");
    report.metric("ghn.embed_ms.p99", em.tail, "ms");
    report.metric("ghn.arena_mb",
                  static_cast<double>(ghn::GhnInference::thread_arena().capacity_bytes()) /
                      (1 << 20),
                  "MB");
    report.metric("ghn.train_s", trained, "s");
    report.metric("simulator.campaign_s", best_time(campaign), "s");
    report.metric("regress.fit_s", best_time(fit), "s");
    layer_probes(pddl, tracer, report);
  }
}

}  // namespace perfbench
