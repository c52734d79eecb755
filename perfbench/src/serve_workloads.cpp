// serve_hot: the served predictor under open-loop traffic over loopback rpc
// against a warmed service.  Every predict is a cache hit, so the GHN does
// no work; time goes to rpc framing and the socket, queue and dispatch
// hand-off, build_graph (paid even on a hit), the cache probe and the
// regressor.  About one frame in ten is an `observe` write carrying the
// simulator's ground truth, so a read-path gain that costs the write path
// shows.  The traced run adds one burst of first requests for models the
// service has not seen, which measures the dispatcher's batched and
// coalesced embed path.
#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "feedback/controller.hpp"
#include "graph/models.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "serve/service.hpp"

namespace perfbench {

using namespace pddl;

namespace {

// Fixed offered load, about a quarter of the closed-loop capacity measured
// when the benchmark was defined (about 20k req/s on 4 Xeon cores).
constexpr double kNominalRate = 5000.0;
constexpr std::size_t kObserveEvery = 10;  // one observe frame per 10
// f32 serving against the f64 library reference (as in serve_test).
constexpr double kPredictionRelTol = 1e-4;

bool close_to(double served, double reference) {
  return std::fabs(served - reference) <=
         kPredictionRelTol * std::max(1.0, std::fabs(reference));
}

// The production serving stack (predict_server's settings, f32, cache on,
// reuse off, static dispatch) over the library objects.
// Destruction runs in reverse: clients, server, feedback, service, then the
// predictor, simulator and pool of the base.
struct Stack : Library {
  using Library::Library;
  std::unique_ptr<serve::PredictionService> service;
  std::unique_ptr<feedback::FeedbackController> feedback;
  std::unique_ptr<rpc::Server> server;
  std::vector<rpc::Client> clients;

  ~Stack() {
    clients.clear();
    if (server) server->stop();
  }
};

struct SetupTimes {
  double setup_s = 0.0;
  double ghn_train_s = 0.0;  // excluded from setup_s
  double campaign_s = 0.0;
  double fit_s = 0.0;
  double train_s = 0.0;      // campaign + fit
  double warm_up_s = 0.0;
};

std::unique_ptr<Stack> build_stack(const Options& opt, unsigned connections, Tracer& tracer,
                                   SetupTimes& t) {
  const std::int64_t t0 = Tracer::now_ns();
  Span setup(tracer, "setup");
  auto s = std::make_unique<Stack>(opt);
  for (const auto& ds : {workload::cifar10(), workload::wikitext103()}) {
    {
      Span span(tracer, "ghn.load_or_train", 0, setup.id());
      t.ghn_train_s += ensure_ghn(s->pddl, ds, opt);
    }
    const FitTimes ft = campaign_and_fit(s->pddl, s->simulator, ds.name, tracer);
    t.campaign_s += ft.campaign_s;
    t.fit_s += ft.fit_s;
  }
  serve::ServiceConfig cfg;
  cfg.dispatcher_threads = 2;
  cfg.queue_capacity = 1024;
  cfg.cache_shards = 8;
  cfg.cache_capacity = 1024;
  cfg.max_batch = 8;
  cfg.precision = ghn::Precision::kF32;
  {
    Span span(tracer, "serve.start", 0, setup.id());
    s->service = std::make_unique<serve::PredictionService>(s->pddl, cfg);
  }
  const std::int64_t w0 = Tracer::now_ns();
  {
    Span span(tracer, "serve.warm_up", 0, setup.id());
    s->service->warm_up(serving_workloads());
  }
  t.warm_up_s = seconds_since(w0);
  Span span(tracer, "rpc.server.start", 0, setup.id());
  s->feedback = std::make_unique<feedback::FeedbackController>(*s->service, s->pddl);
  s->server = std::make_unique<rpc::Server>(*s->service);
  s->server->attach_feedback(s->feedback.get());
  s->server->start();
  for (unsigned c = 0; c < connections; ++c) {
    s->clients.emplace_back("127.0.0.1", s->server->port());
  }
  t.setup_s = seconds_since(t0) - t.ghn_train_s;
  return s;
}

// Builds the stack `reps` times (keeping the last).  setup_s and the
// warm-up are the medians over the set-ups; the campaign and fit times, of
// which train_s is made, are the best set-up's.
std::unique_ptr<Stack> set_up(const Options& opt, unsigned connections,
                              Tracer& tracer, Report& report, SetupTimes& med) {
  const int reps = opt.smoke ? 1 : 5;
  std::vector<double> setup, campaign, fit, both, warm;
  double trained = 0.0;
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < reps; ++r) {
    stack.reset();
    SetupTimes t;
    stack = build_stack(opt, connections, tracer, t);
    setup.push_back(t.setup_s);
    campaign.push_back(t.campaign_s);
    fit.push_back(t.fit_s);
    both.push_back(t.campaign_s + t.fit_s);
    warm.push_back(t.warm_up_s);
    trained += t.ghn_train_s;
  }
  med.setup_s = median(setup);
  med.campaign_s = best_time(campaign);
  med.fit_s = best_time(fit);
  med.train_s = best_time(both);
  med.warm_up_s = median(warm);
  med.ghn_train_s = trained;
  report.detail("setup_repetitions_s", json_list(setup));
  return stack;
}

// Request order of a run: a seeded shuffle of the mix, reshuffled each pass,
// and one observe frame at a seeded position in every block of
// kObserveEvery frames.
struct Schedule {
  std::vector<std::size_t> pair;  // mix index of frame i
  std::vector<char> observe;      // frame i is an observe write
};

Schedule make_schedule(std::size_t frames, std::size_t mix_size,
                       std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  Schedule s;
  std::vector<std::size_t> perm(mix_size);
  for (std::size_t i = 0; i < mix_size; ++i) perm[i] = i;
  while (s.pair.size() < frames) {
    std::shuffle(perm.begin(), perm.end(), rng);
    for (std::size_t k : perm) s.pair.push_back(k);
  }
  s.pair.resize(frames);
  s.observe.assign(frames, 0);
  for (std::size_t b = 0; b < frames; b += kObserveEvery) {
    const std::size_t at = b + rng.uniform_int(kObserveEvery);
    if (at < frames) s.observe[at] = 1;
  }
  return s;
}

// Library reference for every pair: PredictDdl::submit (f64 embedding,
// features, regressor) on the same request.
std::vector<double> references(core::PredictDdl& pddl,
                               const std::vector<core::PredictRequest>& mix) {
  std::vector<double> ref;
  for (const auto& r : mix) ref.push_back(pddl.submit(r).predicted_time_s);
  return ref;
}

// Per-request timing split, filled only on traced runs.
struct Components {
  std::vector<double> rtt_ms, total_ms, queue_ms, embed_ms, infer_ms;
  std::vector<char> hit, is_predict;
  explicit Components(std::size_t n)
      : rtt_ms(n, -1), total_ms(n, -1), queue_ms(n, -1), embed_ms(n, -1),
        infer_ms(n, -1), hit(n, 0), is_predict(n, 0) {}
  void record(std::size_t i, double rtt, const serve::ServeResult& r) {
    rtt_ms[i] = rtt;
    total_ms[i] = r.total_ms;
    queue_ms[i] = r.queue_ms;
    embed_ms[i] = r.response.embedding_ms;
    infer_ms[i] = r.response.inference_ms;
    hit[i] = r.cache_hit ? 1 : 0;
    is_predict[i] = 1;
  }
};

// Counter deltas between two stats snapshots.
struct Delta {
  double batches = 0, batched_requests = 0, hits = 0, misses = 0;
  double embed_batches = 0, embed_graphs = 0, coalesced = 0;
};

Delta delta(const serve::MetricsSnapshot& a, const serve::MetricsSnapshot& b) {
  Delta d;
  d.batches = static_cast<double>(b.batches_dispatched - a.batches_dispatched);
  for (std::size_t s = 0; s < b.batch_size_counts.size(); ++s) {
    d.batched_requests += static_cast<double>(s + 1) *
        static_cast<double>(b.batch_size_counts[s] - a.batch_size_counts[s]);
  }
  d.hits = static_cast<double>(b.cache_hits - a.cache_hits);
  d.misses = static_cast<double>(b.cache_misses - a.cache_misses);
  d.embed_batches = static_cast<double>(b.embed_batches - a.embed_batches);
  d.embed_graphs = static_cast<double>(b.embed_batch_graphs - a.embed_batch_graphs);
  d.coalesced = static_cast<double>(b.embed_coalesced - a.embed_coalesced);
  return d;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Per-layer metrics of the service, from the nominal phase's per-request
// timing split and counter deltas.
void service_layer_metrics(const PhaseResult& nominal, const Components& c,
                           const Delta& d, Report& report) {
  std::vector<double> overhead_us, queue, residual, lookup_us, infer_us, wait_ms,
      client_ms;
  for (std::size_t i = 0; i < c.total_ms.size(); ++i) {
    if (!c.is_predict[i] || nominal.latency_at[i] < 0) continue;
    client_ms.push_back(nominal.latency_at[i]);
    queue.push_back(c.queue_ms[i]);
    residual.push_back(c.total_ms[i] - c.queue_ms[i] - c.embed_ms[i] - c.infer_ms[i]);
    infer_us.push_back(1e3 * c.infer_ms[i]);
    if (c.hit[i]) lookup_us.push_back(1e3 * c.embed_ms[i]);
    overhead_us.push_back(1e3 * (c.rtt_ms[i] - c.total_ms[i]));
    wait_ms.push_back(nominal.latency_at[i] - c.rtt_ms[i]);
  }
  const Summary ov = summarize(overhead_us), qu = summarize(queue),
                re = summarize(residual), lk = summarize(lookup_us),
                in = summarize(infer_us), wa = summarize(wait_ms);
  report.metric("rpc.overhead_us.p50", ov.p50, "us");
  report.metric("rpc.overhead_us.p99", ov.tail, "us");
  report.metric("serve.queue_ms.p50", qu.p50, "ms");
  report.metric("serve.queue_ms.p99", qu.tail, "ms");
  report.metric("serve.residual_ms.p50", re.p50, "ms");
  report.metric("serve.residual_ms.p99", re.tail, "ms");
  report.metric("serve.cache_lookup_us.p50", lk.p50, "us");
  report.metric("core.infer_us", in.p50, "us");
  report.metric("serve.batch_size.mean", ratio(d.batched_requests, d.batches), "count");
  report.metric("serve.batch_size.base", d.batches, "count");
  report.metric("serve.cache_hit_ratio", ratio(d.hits, d.hits + d.misses), "ratio");
  report.metric("serve.cache_hit_ratio.base", d.hits + d.misses, "count");
  report.detail("layer_samples",
                json_obj({{"rpc.overhead_us", json_summary(ov)},
                          {"serve.queue_ms", json_summary(qu)},
                          {"serve.residual_ms", json_summary(re)},
                          {"serve.cache_lookup_us", json_summary(lk)},
                          {"core.infer_us", json_summary(in)},
                          {"client_wait_ms", json_summary(wa)}}));
  // The stages of a predict request, end to end: client-side wait for a
  // free connection, rpc overhead, queue, cache lookup, regressor,
  // residual.  Means add up exactly; medians only approximately.
  const Summary cl = summarize(client_ms);
  const double stage_p50_ms =
      wa.p50 + ov.p50 / 1e3 + qu.p50 + lk.p50 / 1e3 + in.p50 / 1e3 + re.p50;
  const double stage_mean_ms =
      wa.mean + ov.mean / 1e3 + qu.mean + lk.mean / 1e3 + in.mean / 1e3 + re.mean;
  report.detail("p50_accounting",
                json_obj({{"client_p50_ms", json_num(cl.p50)},
                          {"sum_of_stage_p50s_ms", json_num(stage_p50_ms)},
                          {"client_mean_ms", json_num(cl.mean)},
                          {"sum_of_stage_means_ms", json_num(stage_mean_ms)}}));
}

// Shares of --seconds: the nominal-rate phase and the closed-loop
// saturation phase.  An unrecorded warm-up at the nominal rate comes first,
// so the first recorded requests do not meet threads and caches still idle
// from the set-up.
constexpr double kNominalShare = 0.7, kClosedShare = 0.3;
constexpr unsigned kClosedChunks = 12;
constexpr double kWarmUpSeconds = 0.5;

// One seeded noisy simulator measurement per (pair, draw): the ground truth
// an observe frame carries and `mre` scores the served predictions against.
class Truth {
 public:
  Truth(const Stack& s, const std::vector<core::PredictRequest>& mix)
      : sim_(s.simulator), mix_(mix) {
    for (const auto& r : mix) graphs_.push_back(r.workload.build_graph());
  }
  double measure(std::size_t k, Rng& rng) const {
    return sim_.run(mix_[k].workload, graphs_[k], mix_[k].cluster, rng).total_s;
  }

 private:
  const sim::DdlSimulator& sim_;
  const std::vector<core::PredictRequest>& mix_;
  std::vector<graph::CompGraph> graphs_;
};

// Mean relative error of the nominal phase's served predictions against a
// fresh measurement of each frame's request.
double served_mre(const Truth& truth, const Schedule& sched,
                  const std::vector<double>& served, std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 29);
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < served.size(); ++i) {
    if (!(served[i] > 0.0)) continue;
    const double t = truth.measure(sched.pair[i], rng);
    sum += std::fabs(served[i] - t) / t;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<double> in_order(const PhaseResult& p) {
  std::vector<double> out;
  for (double l : p.latency_at) {
    if (l >= 0.0) out.push_back(l);
  }
  return out;
}

void report_e2e(const PhaseResult& warm, const PhaseResult& nominal,
                const ClosedResult& closed, const SetupTimes& st, double mre,
                Report& report) {
  const Windowed w = windowed(in_order(nominal));
  report.metric("setup_s", st.setup_s, "s");
  report.metric("p50_ms", w.p50, "ms");
  report.metric("preds_per_s", closed.ok_per_s(), "1/s");
  report.metric("train_s", st.train_s, "s");
  report.metric("mre", mre, "ratio");
  report.detail(
      "phases",
      json_obj({{"warm_up", json_phase(warm)},
                {"nominal", json_phase(nominal)},
                {"nominal_windows",
                 json_obj({{"windows", json_num(static_cast<double>(w.windows))},
                           {"per_window", json_num(static_cast<double>(w.per_window))},
                           {"p50s", json_list(w.window_p50s)}})},
                {"closed_loop",
                 json_obj({{"attempted", json_num(static_cast<double>(closed.attempted))},
                           {"ok", json_num(static_cast<double>(closed.ok))},
                           {"seconds", json_num(closed.wall_s)},
                           {"burst_ok_per_s", json_list(closed.chunk_ok_per_s)}})}}));
  report.detail_num("nominal_rate", kNominalRate);
}

void report_setup_layers(const SetupTimes& st, Report& report) {
  report.metric("serve.warm_up_s", st.warm_up_s, "s");
  report.metric("simulator.campaign_s", st.campaign_s, "s");
  report.metric("regress.fit_s", st.fit_s, "s");
  report.metric("ghn.train_s", st.ghn_train_s, "s");
}

// The cache-missed path of the traced run: first requests for the CIFAR-10
// models the warm-up did not cover, each on the mix's three clusters, sent
// at once as one predict_batch frame per connection.  The three requests of
// a model travel in one frame, so the dispatcher can embed them in one
// batched pass and coalesce the duplicates.  Reports the embed time of the
// misses, the batch width and the coalesced share; checks every prediction
// against the library reference.
void cold_burst(Stack& stack, Tracer& tracer, Report& report) {
  std::vector<std::string> warmed;
  for (const auto& w : serving_workloads()) warmed.push_back(w.model);
  std::vector<core::PredictRequest> unseen;
  for (const auto& spec : graph::model_registry()) {
    if (std::find(warmed.begin(), warmed.end(), spec.name) != warmed.end()) continue;
    for (const core::PredictRequest& r : serving_mix()) {
      if (r.workload.dataset.name != "cifar10" || r.workload.model != warmed.front()) continue;
      core::PredictRequest q = r;
      q.workload.model = spec.name;
      unseen.push_back(std::move(q));
    }
  }
  const std::vector<double> ref = references(stack.pddl, unseen);
  // Whole models (three consecutive requests) per frame, round robin.
  const std::size_t conns = stack.clients.size();
  std::vector<std::vector<std::size_t>> frames(conns);
  for (std::size_t i = 0; i < unseen.size(); ++i) frames[(i / 3) % conns].push_back(i);

  std::vector<serve::ServeResult> results(unseen.size());
  const serve::MetricsSnapshot before = stack.clients[0].stats();
  {
    std::vector<std::thread> senders;
    for (std::size_t c = 0; c < conns; ++c) {
      senders.emplace_back([&, c] {
        std::vector<core::PredictRequest> batch;
        for (std::size_t i : frames[c]) batch.push_back(unseen[i]);
        Span span(tracer, "rpc.client.predict_batch", c);
        const std::vector<serve::ServeResult> got = stack.clients[c].predict_batch(batch);
        for (std::size_t j = 0; j < got.size() && j < frames[c].size(); ++j) {
          results[frames[c][j]] = got[j];
        }
      });
    }
    for (auto& t : senders) t.join();
  }
  const serve::MetricsSnapshot after = stack.clients[0].stats();
  const Delta d = delta(before, after);

  std::vector<double> miss_ms;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < unseen.size(); ++i) {
    const serve::ServeResult& r = results[i];
    if (!r.ok() || !close_to(r.response.predicted_time_s, ref[i])) {
      ++failed;
      continue;
    }
    if (!r.cache_hit) miss_ms.push_back(r.response.embedding_ms);
  }
  report.count(unseen.size(), failed);
  report.check(failed == 0, std::to_string(failed) +
                                " first requests for unseen models failed or differ "
                                "from the library reference by more than 1e-4");
  report.check(d.misses > 0, "the unseen-model burst missed no cache entry");
  const Summary mi = summarize(miss_ms);
  report.metric("ghn.embed_ms.p50", mi.p50, "ms");
  report.metric("ghn.embed_ms.p99", mi.tail, "ms");
  report.metric("ghn.batch_width.mean", ratio(d.embed_graphs, d.embed_batches), "count");
  report.metric("serve.coalesced_ratio", ratio(d.coalesced, d.misses), "ratio");
  report.metric("ghn.arena_mb", static_cast<double>(after.arena_hwm_bytes) / (1 << 20), "MB");
  report.detail("unseen_model_burst",
                json_obj({{"requests", json_num(static_cast<double>(unseen.size()))},
                          {"failed", json_num(static_cast<double>(failed))},
                          {"frames", json_num(static_cast<double>(conns))},
                          {"cache_misses", json_num(d.misses)},
                          {"embed_batches", json_num(d.embed_batches)},
                          {"embed_graphs", json_num(d.embed_graphs)},
                          {"coalesced", json_num(d.coalesced)},
                          {"ghn.embed_ms", json_summary(mi)}}));
}

}  // namespace

void run_serve_hot(const Options& opt, Tracer& tracer, Report& report) {
  const unsigned connections = std::max(1u, usable_cpus() - 1);
  SetupTimes st;
  std::unique_ptr<Stack> stack = set_up(opt, connections, tracer, report, st);
  record_provenance(report, opt, stack->pddl, {"cifar10", "wikitext103"});
  report.detail_num("connections", connections);
  report.detail_num("generator_threads", 1);

  const std::vector<core::PredictRequest> mix = serving_mix();
  const std::vector<double> ref = references(stack->pddl, mix);
  const Truth truth(*stack, mix);
  std::vector<double> observed;  // what each pair's observe frames carry
  {
    Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 31);
    for (std::size_t k = 0; k < mix.size(); ++k) observed.push_back(truth.measure(k, rng));
  }
  std::atomic<std::uint64_t> wrong{0};

  // One op per frame: predict (checked against the reference) or observe
  // (its live prediction checked likewise).  `served` and `comp`, when
  // given, record the nominal phase.
  auto make_op = [&](const Schedule& sched, std::vector<double>* served,
                     Components* comp) {
    return [&, served, comp](unsigned w, std::size_t i) {
      rpc::Client& client = stack->clients[w];
      const std::size_t f = i % sched.pair.size();
      const std::size_t k = sched.pair[f];
      if (sched.observe[f]) {
        Span span(tracer, "rpc.client.observe", i);
        const feedback::ObserveOutcome o = client.observe(mix[k], observed[k]);
        const bool good = o.accepted && close_to(o.predicted_s, ref[k]);
        if (!good) wrong.fetch_add(1);
        if (served != nullptr && good) (*served)[i] = o.predicted_s;
        return good;
      }
      const std::int64_t t0 = Tracer::now_ns();
      serve::ServeResult r;
      {
        Span span(tracer, "rpc.client.predict", i);
        r = client.predict(mix[k]);
      }
      const bool good = r.ok() && close_to(r.response.predicted_time_s, ref[k]);
      if (r.ok() && !good) wrong.fetch_add(1);
      if (served != nullptr && good) (*served)[i] = r.response.predicted_time_s;
      if (comp != nullptr) {
        comp->record(i, static_cast<double>(Tracer::now_ns() - t0) / 1e6, r);
      }
      return good;
    };
  };

  rpc::Client& admin = stack->clients[0];
  const double nominal_s = kNominalShare * opt.seconds;
  const std::size_t n_nominal = detail::requests_in(kNominalRate, nominal_s);
  const Schedule nominal_sched = make_schedule(n_nominal, mix.size(), opt.seed);
  std::vector<double> served(n_nominal, 0.0);
  Components comp(tracer.on() ? n_nominal : 0);
  std::optional<IdleSpinners> spinners(std::in_place, usable_cpus());
  const PhaseResult warm = run_queued(
      kNominalRate, kWarmUpSeconds, connections,
      make_op(make_schedule(detail::requests_in(kNominalRate, kWarmUpSeconds), mix.size(),
                            opt.seed + 250),
              nullptr, nullptr));
  const serve::MetricsSnapshot before = admin.stats();
  const PhaseResult nominal =
      run_queued(kNominalRate, nominal_s, connections,
                 make_op(nominal_sched, &served, tracer.on() ? &comp : nullptr));
  const serve::MetricsSnapshot after_nominal = admin.stats();
  const Schedule closed_sched = make_schedule(4096, mix.size(), opt.seed + 500);
  const ClosedResult closed = run_closed(kClosedShare * opt.seconds, connections,
                                         kClosedChunks, make_op(closed_sched, nullptr, nullptr));
  spinners.reset();
  if (tracer.on()) cold_burst(*stack, tracer, report);
  const serve::MetricsSnapshot end = admin.stats();

  report.count(warm.attempted + nominal.attempted + closed.attempted,
               nominal.failed + wrong.load());
  report_e2e(warm, nominal, closed, st, served_mre(truth, nominal_sched, served, opt.seed),
             report);

  // Correctness: exact accounting, a clean wire, no refit, right answers.
  report.check(wrong.load() == 0,
               std::to_string(wrong.load()) +
                   " served predictions differ from the library reference by more than 1e-4");
  report.check(nominal.failed == 0, "nominal phase had " +
                                        std::to_string(nominal.failed) + " failed requests");
  report.check(end.completed == end.cache_hits + end.cache_misses + end.reuse_hits,
               "completed != cache_hits + cache_misses + reuse_hits");
  report.check(end.rpc_frame_errors == 0, "rpc frame errors: " +
                                              std::to_string(end.rpc_frame_errors));
  report.check(end.refits_started == 0 && end.engine_swaps == 0,
               "observe traffic triggered a refit; predictions would drift from the reference");
  report.check(end.errors == 0, "service errors: " + std::to_string(end.errors));

  if (tracer.on()) {
    service_layer_metrics(nominal, comp, delta(before, after_nominal), report);
    std::vector<double> observe_ms;
    for (std::size_t i = 0; i < n_nominal; ++i) {
      if (nominal_sched.observe[i] && nominal.latency_at[i] >= 0) {
        observe_ms.push_back(nominal.latency_at[i]);
      }
    }
    const Summary ob = summarize(observe_ms);
    report.metric("feedback.observe_ms.p50", ob.p50, "ms");
    report.metric("feedback.observe_ms.p99", ob.tail, "ms");
    report.metric("feedback.refits", static_cast<double>(end.refits_started), "count");
    report.detail("feedback.observe_ms", json_summary(ob));
    report_setup_layers(st, report);
    report.metric("gen.late_ms.p99", nominal.lateness().tail, "ms");
    layer_probes(stack->pddl, tracer, report);
  }
  report.detail_str("stats_end", end.to_json());
}

}  // namespace perfbench
