// Feedback controller: closes the loop from observed training times back
// into the serving regressor, without taking the service offline.
//
//   observe(req, measured_s)
//     ├─ score against the LIVE serving path (PredictionService::predict,
//     │  same engine resolution and embedding cache a client would hit)
//     ├─ append to the bounded ObservationLog (persisted in state.pddl)
//     ├─ feed |err| and |err|/measured into the dataset's DriftDetector
//     └─ drift crossing → count it and (if auto_refit) enqueue a refit
//
//   refit (background worker thread, one dataset at a time)
//     ├─ training set = campaign measurements ⊕ accepted observations
//     │  (regress::merge), featurized through the same FeatureBuilder
//     ├─ PredictDdl::fit_fresh_engine — the installed engine is untouched
//     │  while fitting, so serving never blocks
//     ├─ PredictionService::swap_engine — atomic publish; in-flight batches
//     │  finish on the engine they resolved at dequeue
//     └─ detector reset (the old model's errors don't indict the new one)
//
// Thread-safety: observe()/request_refit()/status() may be called from any
// number of threads (rpc handlers, loadgen threads); the refit worker is the
// only thread that fits and swaps.  Every counter also lands in the
// service's MetricsSnapshot via PredictionService::count, so stats consumers
// see feedback activity without a second endpoint.
#pragma once

#include <condition_variable>
#include <map>
#include <set>
#include <thread>

#include "feedback/drift.hpp"
#include "feedback/observation_log.hpp"
#include "serve/service.hpp"

namespace pddl::feedback {

struct FeedbackConfig {
  std::size_t log_capacity = 4096;  // observation ring bound
  DriftConfig drift;
  bool auto_refit = true;  // drift crossing enqueues a refit automatically
  // ghn_drift crossing notifies the attached RetrainSink automatically.
  // Meaningless (and harmless) without attach_retrain().
  bool auto_retrain = true;
  // Seed threaded into background model fitting triggered by this
  // controller (the retrain job derives its fine-tune RNG from it), so two
  // runs from the same snapshot produce bit-identical swapped models.
  std::uint64_t seed = 1;
};

// Consumer of edge-triggered ghn_drift signals (implemented by
// retrain::GhnTrainerJob; an interface so src/feedback/ stays independent
// of src/retrain/, which links against it).  request_retrain must be cheap
// and non-blocking — it is called from observe() — and returns false when a
// retrain for the (dataset, family) pair is already queued or running.
struct RetrainSink {
  virtual ~RetrainSink() = default;
  virtual bool request_retrain(const std::string& dataset,
                               const std::string& family) = 0;
};

// What happened to one observe() call.
struct ObserveOutcome {
  bool accepted = false;
  double predicted_s = 0.0;  // live prediction the error was scored against
  double abs_error_s = 0.0;
  double rel_error = 0.0;   // |pred − measured| / measured
  bool drifted = false;     // detector state after this sample
  bool refit_triggered = false;
  // This observation crossed the per-family ghn_drift edge (family drifted
  // while its scored peers stayed clean — see FamilyFeedback).
  bool ghn_drift = false;
  // ...and the attached RetrainSink accepted a retrain for it.
  bool retrain_triggered = false;
  std::string reason;  // populated when rejected
};

// Per-dataset rolling state, reported by status().
struct DatasetFeedback {
  std::string dataset;
  std::uint64_t observations = 0;  // accepted for this dataset (lifetime)
  ErrorStats errors;               // current window
};

// Per-(dataset, model-family) error decomposition.  `ghn_drift` is the
// "retrain the GHN" signal: this family's window has drifted while the
// other observed families are clean, so the shared regressor and cluster
// model are fine and the frozen graph embedding is what strains — exactly
// the failure mode a new architecture family (transformers) provokes.
// Family-wide drift across the board points at the regressor/cluster
// instead, and the regular refit path handles it.
struct FamilyFeedback {
  std::string dataset;
  std::string family;              // graph::model_family(), or "custom"
  std::uint64_t observations = 0;  // accepted for this family (lifetime)
  ErrorStats errors;               // current window
  bool ghn_drift = false;
  // Window snapshot taken just before the most recent refit/retrain swap
  // touching this dataset (all-zero until the first swap).  The windows
  // reset at a swap boundary so the old model's errors never indict the new
  // one; this preserved snapshot is what makes before/after improvement
  // reportable across that reset.
  ErrorStats pre_swap;
  std::uint64_t swaps = 0;  // engine/GHN swaps this family lived through
};

struct RefitStatus {
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  bool in_progress = false;      // worker currently fitting
  std::size_t queued = 0;        // datasets waiting behind it
  std::string last_dataset;      // most recently completed refit
  std::uint64_t last_campaign_rows = 0;
  std::uint64_t last_observation_rows = 0;
  std::string last_error;        // most recent failure, if any
  std::vector<DatasetFeedback> datasets;
  std::vector<FamilyFeedback> families;  // per-family decomposition
};

class FeedbackController {
 public:
  FeedbackController(serve::PredictionService& service,
                     core::PredictDdl& engine, FeedbackConfig cfg = {});
  ~FeedbackController();  // drains the pending queue, then joins the worker

  FeedbackController(const FeedbackController&) = delete;
  FeedbackController& operator=(const FeedbackController&) = delete;

  // Ingest one observed run.  Blocks for one live prediction (the scoring
  // reference); rejects observations that cannot be scored (non-positive or
  // non-finite measurement, unknown dataset, service rejection).
  ObserveOutcome observe(const core::PredictRequest& req, double measured_s);

  // Explicitly enqueue a refit for `dataset` regardless of drift state.
  // Returns false when one is already queued or running for that dataset.
  bool request_refit(const std::string& dataset);

  // Attaches the consumer of edge-triggered ghn_drift signals (nullptr
  // detaches).  With cfg.auto_retrain, each per-family ghn_drift crossing
  // fires sink->request_retrain exactly once until the family's window is
  // reset by a swap (deduped like refits).
  void attach_retrain(RetrainSink* sink);

  // Swap boundary notification from the retrain job: snapshots every family
  // window of `dataset` into its pre_swap slot, resets the dataset +
  // family windows (old-GHN errors say nothing about the new generation),
  // clears the ghn_drift latches, and returns the pre-swap snapshot so the
  // caller can report per-family before/after error.
  std::vector<FamilyFeedback> note_ghn_swap(const std::string& dataset);

  RefitStatus status() const;

  // Blocks until the refit queue is empty and the worker is idle.
  void wait_idle();

  const ObservationLog& log() const { return log_; }
  const FeedbackConfig& config() const { return cfg_; }

  // ---- persistence (sections inside the PredictDdl state snapshot) ----
  // Appends the observation log as section "feedback/observations"; pass as
  // the `extra` hook of PredictDdl::save_state so one state.pddl holds the
  // whole warm-restart state (GHNs, campaigns, regressors, observations).
  void save(io::SnapshotWriter& snap) const;
  // Restores the observation log if the section is present; returns the
  // number of records restored (0 when absent — e.g. a pre-feedback
  // snapshot).  Error windows intentionally start empty: restored
  // observations are training data, not evidence against the (also
  // restored, possibly refitted) regressor.
  std::size_t load(const io::SnapshotReader& snap);

 private:
  void worker_loop();
  void do_refit(const std::string& dataset);
  bool enqueue_refit_locked(const std::string& dataset);
  // Shared swap-boundary bookkeeping (refit and retrain): snapshot family
  // windows into pre_swap, bump swap counts, reset windows, clear latches.
  // Caller holds mutex_; returns the pre-swap family snapshot.
  std::vector<FamilyFeedback> snapshot_and_reset_locked(
      const std::string& dataset);

  serve::PredictionService& service_;
  core::PredictDdl& engine_;
  const FeedbackConfig cfg_;
  ObservationLog log_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;       // worker wake-up
  std::condition_variable idle_cv_;  // wait_idle wake-up
  std::deque<std::string> refit_queue_;
  std::map<std::string, bool> refit_pending_;  // queued or running
  std::map<std::string, DriftDetector> detectors_;
  std::map<std::string, std::uint64_t> accepted_per_dataset_;
  // Per-(dataset, family) windows behind the ghn_drift signal.
  std::map<std::pair<std::string, std::string>, DriftDetector>
      family_detectors_;
  std::map<std::pair<std::string, std::string>, std::uint64_t>
      accepted_per_family_;
  // Satellite state for per-family error tracking across swap boundaries.
  std::map<std::pair<std::string, std::string>, ErrorStats> family_pre_swap_;
  std::map<std::pair<std::string, std::string>, std::uint64_t> family_swaps_;
  // (dataset, family) pairs whose ghn_drift edge already fired since the
  // last window reset — the dedup behind "edge-triggered like refits".
  std::set<std::pair<std::string, std::string>> ghn_drift_latched_;
  RetrainSink* retrain_sink_ = nullptr;
  bool stopping_ = false;
  bool refit_in_progress_ = false;
  std::uint64_t refits_started_ = 0;
  std::uint64_t refits_completed_ = 0;
  std::uint64_t refits_failed_ = 0;
  std::string last_dataset_;
  std::uint64_t last_campaign_rows_ = 0;
  std::uint64_t last_observation_rows_ = 0;
  std::string last_error_;

  std::thread worker_;  // started last, joined in the destructor
};

}  // namespace pddl::feedback
