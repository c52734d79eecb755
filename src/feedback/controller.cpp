#include "feedback/controller.hpp"

#include <cmath>

#include "graph/models.hpp"
#include "regress/dataset.hpp"

namespace pddl::feedback {

namespace {
constexpr const char* kObservationSection = "feedback/observations";

// Family id for the per-family decomposition; models outside both
// registries (NAS candidates, ad-hoc graphs) pool under "custom".
std::string family_of(const std::string& model) {
  return graph::has_model(model) ? graph::model_family(model) : "custom";
}
}  // namespace

FeedbackController::FeedbackController(serve::PredictionService& service,
                                       core::PredictDdl& engine,
                                       FeedbackConfig cfg)
    : service_(service),
      engine_(engine),
      cfg_(cfg),
      log_(cfg.log_capacity),
      worker_([this] { worker_loop(); }) {}

FeedbackController::~FeedbackController() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

ObserveOutcome FeedbackController::observe(const core::PredictRequest& req,
                                           double measured_s) {
  ObserveOutcome out;
  if (!std::isfinite(measured_s) || measured_s <= 0.0) {
    out.reason = "measured_seconds must be a positive finite number";
    service_.count(&serve::ServiceMetrics::observations_rejected);
    return out;
  }

  // Score against the live serving path: same engine resolution, embedding
  // cache, and feature assembly a client prediction goes through, so the
  // error we track is exactly the error clients experience.
  const serve::ServeResult live = service_.predict(req);
  if (!live.ok()) {
    out.reason = "observation could not be scored: " +
                 std::string(serve::to_string(live.status)) +
                 (live.error.empty() ? "" : " (" + live.error + ")");
    service_.count(&serve::ServiceMetrics::observations_rejected);
    return out;
  }

  out.accepted = true;
  out.predicted_s = live.response.predicted_time_s;
  out.abs_error_s = std::fabs(out.predicted_s - measured_s);
  out.rel_error = out.abs_error_s / measured_s;

  Observation obs;
  obs.request = req;
  obs.measured_s = measured_s;
  obs.predicted_s = out.predicted_s;
  log_.append(std::move(obs));
  service_.count(&serve::ServiceMetrics::observations_ingested);

  const std::string& dataset = req.workload.dataset.name;
  const std::string family = family_of(req.workload.model);
  bool fire_refit = false;
  RetrainSink* fire_retrain = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++accepted_per_dataset_[dataset];
    // Family window first: it feeds the ghn_drift decomposition but never
    // triggers a refit on its own — refitting the regressor cannot fix a
    // strained embedding; the signal asks for GHN retraining instead.
    const auto family_key = std::make_pair(dataset, family);
    ++accepted_per_family_[family_key];
    auto fit = family_detectors_.find(family_key);
    if (fit == family_detectors_.end()) {
      fit = family_detectors_.emplace(family_key, DriftDetector(cfg_.drift))
                .first;
    }
    const bool family_drifted =
        fit->second.record(out.abs_error_s, out.rel_error);
    if (family_drifted && ghn_drift_latched_.count(family_key) == 0) {
      // Edge-triggered ghn_drift: this family's window just crossed (or is
      // still across after its latch was cleared by a swap).  Run the
      // decomposition — the same clean-peer majority rule status() reports —
      // and fire the retrain signal at most once per crossing.  The latch
      // clears when a swap resets the family windows, so a generation that
      // did not actually help re-crosses and re-fires.
      std::size_t clean_peers = 0;
      std::size_t drifted_peers = 0;
      for (const auto& [key, detector] : family_detectors_) {
        if (key == family_key) continue;
        const ErrorStats peer = detector.stats();
        if (peer.count < cfg_.drift.min_count) continue;
        if (peer.drifted) {
          ++drifted_peers;
        } else {
          ++clean_peers;
        }
      }
      if (drifted_peers == 0 || clean_peers >= drifted_peers) {
        ghn_drift_latched_.insert(family_key);
        out.ghn_drift = true;
        service_.count(&serve::ServiceMetrics::ghn_drift_events);
        if (cfg_.auto_retrain && retrain_sink_ != nullptr) {
          fire_retrain = retrain_sink_;
        }
      }
    }
    auto it = detectors_.find(dataset);
    if (it == detectors_.end()) {
      it = detectors_.emplace(dataset, DriftDetector(cfg_.drift)).first;
    }
    const bool was_drifted = it->second.drifted();
    out.drifted = it->second.record(out.abs_error_s, out.rel_error);
    if (out.drifted && !was_drifted) {
      // Edge-triggered: one drift event (and at most one queued refit) per
      // crossing.  The detector is reset after a successful refit, so a
      // still-bad model re-crosses and re-triggers.
      service_.count(&serve::ServiceMetrics::drift_events);
      if (cfg_.auto_refit && enqueue_refit_locked(dataset)) {
        fire_refit = true;
        out.refit_triggered = true;
      }
    }
  }
  if (fire_refit) cv_.notify_all();
  if (fire_retrain != nullptr) {
    // Outside the controller mutex: the sink enqueues onto its own worker
    // and may call back into note_ghn_swap (which takes this mutex) from
    // that worker at any time.
    out.retrain_triggered = fire_retrain->request_retrain(dataset, family);
  }
  return out;
}

void FeedbackController::attach_retrain(RetrainSink* sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  retrain_sink_ = sink;
}

std::vector<FamilyFeedback> FeedbackController::note_ghn_swap(
    const std::string& dataset) {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_and_reset_locked(dataset);
}

std::vector<FamilyFeedback> FeedbackController::snapshot_and_reset_locked(
    const std::string& dataset) {
  std::vector<FamilyFeedback> pre;
  for (auto& [key, detector] : family_detectors_) {
    if (key.first != dataset) continue;
    FamilyFeedback f;
    f.dataset = key.first;
    f.family = key.second;
    const auto it = accepted_per_family_.find(key);
    f.observations = it == accepted_per_family_.end() ? 0 : it->second;
    f.errors = detector.stats();
    f.pre_swap = f.errors;  // by definition: this IS the pre-swap window
    family_pre_swap_[key] = f.errors;
    f.swaps = ++family_swaps_[key];
    detector.reset();
    ghn_drift_latched_.erase(key);
    pre.push_back(std::move(f));
  }
  if (const auto it = detectors_.find(dataset); it != detectors_.end()) {
    it->second.reset();
  }
  return pre;
}

bool FeedbackController::enqueue_refit_locked(const std::string& dataset) {
  if (stopping_) return false;
  auto [it, inserted] = refit_pending_.try_emplace(dataset, true);
  if (!inserted && it->second) return false;  // already queued or running
  it->second = true;
  refit_queue_.push_back(dataset);
  return true;
}

bool FeedbackController::request_refit(const std::string& dataset) {
  bool enqueued = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    enqueued = enqueue_refit_locked(dataset);
  }
  if (enqueued) cv_.notify_all();
  return enqueued;
}

void FeedbackController::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !refit_queue_.empty(); });
    if (refit_queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    const std::string dataset = refit_queue_.front();
    refit_queue_.pop_front();
    refit_in_progress_ = true;
    ++refits_started_;
    lock.unlock();
    service_.count(&serve::ServiceMetrics::refits_started);
    do_refit(dataset);
    lock.lock();
    refit_in_progress_ = false;
    refit_pending_[dataset] = false;
    if (refit_queue_.empty()) idle_cv_.notify_all();
  }
}

void FeedbackController::do_refit(const std::string& dataset) {
  std::uint64_t campaign_rows = 0;
  std::uint64_t observation_rows = 0;
  try {
    // Campaign rows: the measurement sweep the predictor was originally
    // fitted on.  Observation rows: every accepted ground-truth record for
    // this dataset still in the log, featurized through the same builder so
    // the merged design matrix is column-compatible.
    regress::RegressionData campaign;
    const auto measurements = engine_.training_measurements(dataset);
    if (!measurements.empty()) {
      campaign = engine_.features().build_dataset(measurements);
    }
    campaign_rows = campaign.size();

    const std::vector<Observation> observations = log_.for_dataset(dataset);
    regress::RegressionData observed;
    if (!observations.empty()) {
      Vector first = engine_.features().build(
          observations.front().request.workload,
          observations.front().request.cluster);
      observed.x = Matrix(observations.size(), first.size());
      observed.y.resize(observations.size());
      observed.x.set_row(0, first);
      observed.y[0] = observations.front().measured_s;
      for (std::size_t i = 1; i < observations.size(); ++i) {
        observed.x.set_row(i, engine_.features().build(
                                  observations[i].request.workload,
                                  observations[i].request.cluster));
        observed.y[i] = observations[i].measured_s;
      }
    }
    observation_rows = observed.size();

    const regress::RegressionData merged = regress::merge(campaign, observed);
    PDDL_CHECK(merged.size() > 0, "refit for '", dataset,
               "': no campaign measurements and no observations");

    // Fit off to the side, publish atomically, then forget the old model's
    // error window — in-flight predictions finish on the engine they
    // resolved, nothing ever waits on the fit.
    service_.swap_engine(dataset, engine_.fit_fresh_engine(merged));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++refits_completed_;
      last_dataset_ = dataset;
      last_campaign_rows_ = campaign_rows;
      last_observation_rows_ = observation_rows;
      last_error_.clear();
      // Snapshot each family window into pre_swap before the reset, so the
      // improvement across this refit stays reportable (satellite of the
      // retrain loop; the GHN swap path shares this helper).
      snapshot_and_reset_locked(dataset);
    }
    service_.count(&serve::ServiceMetrics::refits_completed);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++refits_failed_;
      last_error_ = "refit for '" + dataset + "' failed: " + e.what();
    }
    service_.count(&serve::ServiceMetrics::refits_failed);
  }
}

RefitStatus FeedbackController::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RefitStatus s;
  s.started = refits_started_;
  s.completed = refits_completed_;
  s.failed = refits_failed_;
  s.in_progress = refit_in_progress_;
  s.queued = refit_queue_.size();
  s.last_dataset = last_dataset_;
  s.last_campaign_rows = last_campaign_rows_;
  s.last_observation_rows = last_observation_rows_;
  s.last_error = last_error_;
  for (const auto& [dataset, detector] : detectors_) {
    DatasetFeedback d;
    d.dataset = dataset;
    const auto it = accepted_per_dataset_.find(dataset);
    d.observations = it == accepted_per_dataset_.end() ? 0 : it->second;
    d.errors = detector.stats();
    s.datasets.push_back(std::move(d));
  }
  for (const auto& [key, detector] : family_detectors_) {
    FamilyFeedback f;
    f.dataset = key.first;
    f.family = key.second;
    const auto it = accepted_per_family_.find(key);
    f.observations = it == accepted_per_family_.end() ? 0 : it->second;
    f.errors = detector.stats();
    if (const auto pit = family_pre_swap_.find(key);
        pit != family_pre_swap_.end()) {
      f.pre_swap = pit->second;
    }
    if (const auto sit = family_swaps_.find(key);
        sit != family_swaps_.end()) {
      f.swaps = sit->second;
    }
    s.families.push_back(std::move(f));
  }
  // "Retrain the GHN" decomposition: a family whose window drifted against
  // a mostly-clean background of other scored families is embedding strain,
  // not regressor/cluster drift.  A board-wide shift (more drifted peers
  // than clean ones) points at the shared model instead and stays with the
  // ordinary refit path.
  for (FamilyFeedback& f : s.families) {
    if (!f.errors.drifted) continue;
    std::size_t clean_peers = 0;
    std::size_t drifted_peers = 0;
    for (const FamilyFeedback& other : s.families) {
      if (&other == &f) continue;
      if (other.errors.count < cfg_.drift.min_count) continue;
      if (other.errors.drifted) {
        ++drifted_peers;
      } else {
        ++clean_peers;
      }
    }
    f.ghn_drift = drifted_peers == 0 || clean_peers >= drifted_peers;
  }
  return s;
}

void FeedbackController::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return refit_queue_.empty() && !refit_in_progress_;
  });
}

void FeedbackController::save(io::SnapshotWriter& snap) const {
  log_.save(snap.add(kObservationSection));
}

std::size_t FeedbackController::load(const io::SnapshotReader& snap) {
  if (!snap.has(kObservationSection)) return 0;
  io::BinaryReader r = snap.reader(kObservationSection);
  log_.load(r);
  return log_.size();
}

}  // namespace pddl::feedback
