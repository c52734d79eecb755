#include "retrain/trainer_job.hpp"

#include <algorithm>
#include <utility>

#include "ghn/infer.hpp"
#include "graph/models.hpp"

namespace pddl::retrain {

namespace {

// Same classification the feedback controller uses for its per-family
// windows: registry models map to their family, anything else is "custom".
const std::string& family_of(const std::string& model) {
  static const std::string kCustom = "custom";
  return graph::has_model(model) ? graph::model_family(model) : kCustom;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Per-retrain seed: deterministic in (base seed, dataset, generation).  The
// generation term keeps successive fine-tunes of one dataset from replaying
// the same shuffle; reruns from the same snapshot replay generation too, so
// the derived stream — and therefore the swapped weights — are bit-identical.
std::uint64_t derive_seed(std::uint64_t base, const std::string& dataset,
                          std::uint64_t generation) {
  std::uint64_t h = base ^ fnv1a(dataset);
  h ^= (generation + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return h;
}

void save_error_stats(io::BinaryWriter& w, const feedback::ErrorStats& s) {
  w.u64(s.count);
  w.f64(s.mean_abs_s);
  w.f64(s.mean_rel);
  w.f64(s.p50_abs_s);
  w.f64(s.p95_abs_s);
  w.f64(s.p50_rel);
  w.f64(s.p95_rel);
  w.boolean(s.drifted);
}

feedback::ErrorStats load_error_stats(io::BinaryReader& r) {
  feedback::ErrorStats s;
  s.count = r.u64();
  s.mean_abs_s = r.f64();
  s.mean_rel = r.f64();
  s.p50_abs_s = r.f64();
  s.p95_abs_s = r.f64();
  s.p50_rel = r.f64();
  s.p95_rel = r.f64();
  s.drifted = r.boolean();
  return s;
}

}  // namespace

GhnTrainerJob::GhnTrainerJob(serve::PredictionService& service,
                             core::PredictDdl& engine,
                             feedback::FeedbackController& feedback,
                             RetrainConfig cfg)
    : service_(service), engine_(engine), feedback_(feedback), cfg_(cfg) {
  if (cfg_.seed == 0) cfg_.seed = feedback_.config().seed;
  worker_ = std::thread([this] { worker_loop(); });
}

GhnTrainerJob::~GhnTrainerJob() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

bool GhnTrainerJob::request_retrain(const std::string& dataset,
                                    const std::string& family) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return false;
    const auto key = std::make_pair(dataset, family);
    if (pending_.count(key) != 0) return false;  // queued or running
    pending_[key] = true;
    queue_.push_back(key);
  }
  cv_.notify_one();
  return true;
}

void GhnTrainerJob::worker_loop() {
  for (;;) {
    std::pair<std::string, std::string> item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: a requested retrain is a
      // promise (the controller latched its drift edge on it).
      if (queue_.empty()) return;
      item = std::move(queue_.front());
      queue_.pop_front();
      in_progress_ = true;
      ++started_;
    }
    service_.count(&serve::ServiceMetrics::retrains_started);
    bool ok = true;
    try {
      do_retrain(item.first, item.second);
    } catch (const std::exception& e) {
      ok = false;
      std::lock_guard<std::mutex> lock(mutex_);
      ++failed_;
      last_error_ = e.what();
    }
    service_.count(ok ? &serve::ServiceMetrics::retrains_completed
                      : &serve::ServiceMetrics::retrains_failed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_.erase(item);
      in_progress_ = false;
    }
    idle_cv_.notify_all();
  }
}

void GhnTrainerJob::do_retrain(const std::string& dataset,
                               const std::string& family) {
  // ---- 1. assemble the fine-tune corpus -------------------------------
  // Campaign graphs anchor what the GHN already knows; the drifted family's
  // observed graphs carry what it is missing.  Dedup by structural
  // fingerprint (several measurements share one architecture) and sort by
  // it, so corpus order — and with it the seeded minibatch shuffle — is a
  // pure function of the graph set, never of arrival order.
  const std::vector<sim::Measurement> campaign =
      engine_.training_measurements(dataset);
  const std::vector<feedback::Observation> observations =
      feedback_.log().for_dataset(dataset);

  std::map<std::uint64_t, graph::CompGraph> by_fp;  // sorted by fingerprint
  std::vector<std::uint64_t> campaign_fp(campaign.size(), 0);
  for (std::size_t i = 0; i < campaign.size(); ++i) {
    const sim::Measurement& m = campaign[i];
    const workload::DatasetDescriptor ds = workload::dataset_by_name(m.dataset);
    graph::CompGraph g = graph::build_model(m.model, ds.input, ds.num_classes);
    const std::uint64_t fp = ghn::structural_fingerprint(g);
    campaign_fp[i] = fp;
    by_fp.emplace(fp, std::move(g));
  }
  // Observed graphs of the drifted family, newest first, capped.  Graphs of
  // *other* families are embedded for the regressor refit below but are not
  // fine-tuned on — their embeddings are what the clean peers validated.
  std::size_t family_graphs = 0;
  std::vector<std::uint64_t> obs_fp(observations.size(), 0);
  std::vector<graph::CompGraph> obs_graph(observations.size());
  for (std::size_t i = 0; i < observations.size(); ++i) {
    obs_graph[i] = observations[i].request.workload.build_graph();
    obs_fp[i] = ghn::structural_fingerprint(obs_graph[i]);
  }
  for (std::size_t r = observations.size(); r-- > 0;) {
    if (family_graphs >= cfg_.max_family_graphs) break;
    const feedback::Observation& obs = observations[r];
    if (family_of(obs.request.workload.model) != family) continue;
    if (by_fp.emplace(obs_fp[r], obs_graph[r]).second) ++family_graphs;
  }

  std::vector<graph::CompGraph> corpus;
  corpus.reserve(by_fp.size());
  for (const auto& [fp, g] : by_fp) corpus.push_back(g);
  PDDL_CHECK(!corpus.empty(),
             "retrain(" + dataset + "): no graphs to fine-tune on");

  // ---- 2. fine-tune a clone off to the side ---------------------------
  std::unique_ptr<ghn::Ghn2> candidate = engine_.registry().clone_model(dataset);
  PDDL_CHECK(candidate != nullptr,
             "retrain(" + dataset + "): no registered GHN");

  std::uint64_t generation_at_start = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    generation_at_start = generation_;
  }
  ghn::TrainerConfig tc;
  tc.epochs = cfg_.epochs;
  tc.batch_size = cfg_.batch_size;
  tc.learning_rate = cfg_.learning_rate;
  tc.clip_norm = cfg_.clip_norm;
  tc.seed = derive_seed(cfg_.seed, dataset, generation_at_start);
  ghn::GhnTrainer trainer(*candidate, tc, corpus);
  const ghn::TrainReport report = trainer.train(engine_.pool(),
                                                cfg_.time_budget_s);

  // ---- 3. refit the regressor on the candidate's embeddings -----------
  // Everything here runs against the clone's own inference engine: the
  // registry, serve cache, and live regressor are untouched until the swap.
  std::shared_ptr<core::InferenceEngine> new_engine;
  if (cfg_.refit_regressor && !campaign.empty()) {
    const ghn::GhnInference infer(*candidate);
    std::map<std::uint64_t, Vector> emb;
    for (const auto& [fp, g] : by_fp) emb.emplace(fp, infer.embedding(g));
    for (std::size_t i = 0; i < observations.size(); ++i)
      if (emb.count(obs_fp[i]) == 0)
        emb.emplace(obs_fp[i], infer.embedding(obs_graph[i]));

    core::FeatureBuilder& fb = engine_.features();
    const Vector first = fb.build(campaign[0], emb.at(campaign_fp[0]));
    regress::RegressionData data;
    data.x = Matrix(campaign.size() + observations.size(), first.size());
    data.y.resize(data.x.rows());
    data.x.set_row(0, first);
    data.y[0] = campaign[0].time_s;
    for (std::size_t i = 1; i < campaign.size(); ++i) {
      data.x.set_row(i, fb.build(campaign[i], emb.at(campaign_fp[i])));
      data.y[i] = campaign[i].time_s;
    }
    for (std::size_t i = 0; i < observations.size(); ++i) {
      const feedback::Observation& obs = observations[i];
      data.x.set_row(campaign.size() + i,
                     fb.assemble_features(emb.at(obs_fp[i]),
                                          obs.request.workload,
                                          obs.request.cluster));
      data.y[campaign.size() + i] = obs.measured_s;
    }
    new_engine = engine_.fit_fresh_engine(data);
  }

  // ---- 4. publish + swap-boundary bookkeeping -------------------------
  service_.swap_ghn(dataset, std::move(candidate), std::move(new_engine));
  const std::vector<feedback::FamilyFeedback> before =
      feedback_.note_ghn_swap(dataset);

  std::lock_guard<std::mutex> lock(mutex_);
  ++generation_;
  ++completed_;
  last_dataset_ = dataset;
  last_family_ = family;
  last_error_.clear();
  last_corpus_graphs_ = corpus.size();
  last_family_graphs_ = family_graphs;
  last_epochs_run_ = report.epochs_run;
  last_train_seconds_ = report.seconds;
  last_initial_loss_ =
      report.epoch_losses.empty() ? 0.0 : report.epoch_losses.front();
  last_final_loss_ = report.final_loss;
  for (const feedback::FamilyFeedback& f : before)
    before_errors_[std::make_pair(f.dataset, f.family)] = f.pre_swap;
}

RetrainStatus GhnTrainerJob::status() const {
  RetrainStatus out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.generation = generation_;
    out.started = started_;
    out.completed = completed_;
    out.failed = failed_;
    out.in_progress = in_progress_;
    out.queued = queue_.size();
    out.last_dataset = last_dataset_;
    out.last_family = last_family_;
    out.last_error = last_error_;
    out.last_corpus_graphs = last_corpus_graphs_;
    out.last_family_graphs = last_family_graphs_;
    out.last_epochs_run = last_epochs_run_;
    out.last_train_seconds = last_train_seconds_;
    out.last_initial_loss = last_initial_loss_;
    out.last_final_loss = last_final_loss_;
    for (const auto& [key, stats] : before_errors_) {
      FamilyErrorDelta d;
      d.dataset = key.first;
      d.family = key.second;
      d.before = stats;
      out.families.push_back(std::move(d));
    }
  }
  if (!out.last_dataset.empty())
    out.live_checksum = engine_.registry().model_checksum(out.last_dataset);
  // Pair every before-snapshot with the family's current (post-swap) window.
  const feedback::RefitStatus fb = feedback_.status();
  for (FamilyErrorDelta& d : out.families)
    for (const feedback::FamilyFeedback& f : fb.families)
      if (f.dataset == d.dataset && f.family == d.family) d.after = f.errors;
  return out;
}

void GhnTrainerJob::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !in_progress_; });
}

void GhnTrainerJob::save(io::SnapshotWriter& snap) const {
  std::lock_guard<std::mutex> lock(mutex_);
  io::BinaryWriter& w = snap.add(kRetrainStateSection);
  w.magic(kRetrainStateMagic);
  w.u32(kRetrainStateVersion);
  w.u64(generation_);
  w.u64(started_);
  w.u64(completed_);
  w.u64(failed_);
  w.str(last_dataset_);
  w.str(last_family_);
  w.str(last_error_);
  w.u64(last_corpus_graphs_);
  w.u64(last_family_graphs_);
  w.i32(last_epochs_run_);
  w.f64(last_train_seconds_);
  w.f64(last_initial_loss_);
  w.f64(last_final_loss_);
  w.u32(static_cast<std::uint32_t>(before_errors_.size()));
  for (const auto& [key, stats] : before_errors_) {
    w.str(key.first);
    w.str(key.second);
    save_error_stats(w, stats);
  }
}

bool GhnTrainerJob::load(const io::SnapshotReader& snap) {
  if (!snap.has(kRetrainStateSection)) return false;
  io::BinaryReader r = snap.reader(kRetrainStateSection);
  r.expect_magic(kRetrainStateMagic, "retrain state");
  const std::uint32_t version = r.u32();
  PDDL_CHECK(version == kRetrainStateVersion,
             "retrain state: unsupported version " + std::to_string(version));
  std::lock_guard<std::mutex> lock(mutex_);
  generation_ = r.u64();
  started_ = r.u64();
  completed_ = r.u64();
  failed_ = r.u64();
  last_dataset_ = r.str();
  last_family_ = r.str();
  last_error_ = r.str();
  last_corpus_graphs_ = r.u64();
  last_family_graphs_ = r.u64();
  last_epochs_run_ = r.i32();
  last_train_seconds_ = r.f64();
  last_initial_loss_ = r.f64();
  last_final_loss_ = r.f64();
  before_errors_.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string ds = r.str();
    std::string fam = r.str();
    before_errors_[std::make_pair(std::move(ds), std::move(fam))] =
        load_error_stats(r);
  }
  return true;
}

}  // namespace pddl::retrain
