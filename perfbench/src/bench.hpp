// Shared declarations of the repository benchmark (see perfbench/README.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/predict_ddl.hpp"
#include "harness.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test mode: a tiny GHN trained in-process and short phases, so every
  // workload can be smoke-tested in seconds.  Never used for measurements.
  bool smoke = false;
  std::string ghn_cache;   // directory of GHNs trained by this build
  std::string trace_out;   // span dump written at the end of a traced run
  std::string commit;      // provenance, supplied by run.py
  std::string source_digest;
};

// Keeps the compiler from discarding a value computed only for timing.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

// One run's output: the metrics of the final JSON line, correctness
// bookkeeping, and a free-form detail object printed on the line before.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // Adds `json` (already-encoded JSON text) under `key` in the detail object.
  void detail(const std::string& key, const std::string& json);
  void detail_num(const std::string& key, double v);
  void detail_str(const std::string& key, const std::string& v);
  // Records a correctness check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  // Counts operations whose success the run requires.
  void count(std::uint64_t attempted, std::uint64_t failed);

  bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  double value(const std::string& name) const { return metrics_.at(name).value; }
  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }
  std::string detail_json() const;
  // The result line, with exactly the `selected` (name, unit) metrics; names
  // absent or reported with another unit are listed in `missing`.
  std::string final_json(
      const std::vector<std::pair<std::string, std::string>>& selected,
      std::string& missing) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> detail_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- small JSON helpers ----
std::string json_str(const std::string& s);
std::string json_num(double v);
std::string json_list(const std::vector<double>& xs);
std::string json_summary(const Summary& s);  // {"n":…,"p50":…,…}
std::string json_phase(const PhaseResult& p);
// Builds an object from key → encoded-value pairs, in order.
std::string json_obj(const std::vector<std::pair<std::string, std::string>>& kv);

// ---- environment ----
std::string cpu_model();
unsigned usable_cpus();
double peak_rss_mb();
double seconds_since(std::int64_t t0_ns);

// ---- library set-up shared by the workloads ----

// Paper-scale GHN and trainer options (32-d embeddings, a 96-graph DARTS
// corpus, 24 epochs), or a tiny configuration in smoke mode.
pddl::core::PredictDdlOptions predictor_options(bool smoke);

// The library objects every workload runs on.  Members are initialized in
// declaration order, so the predictor is built after the pool and the
// simulator it references.
struct Library {
  explicit Library(const Options& opt)
      : pddl(simulator, pool, predictor_options(opt.smoke)) {}
  pddl::ThreadPool pool;
  pddl::sim::DdlSimulator simulator;
  pddl::core::PredictDdl pddl;
};

// Registers the dataset's GHN on `pddl`: loaded from the build's cache when
// present, otherwise trained and cached (smoke mode trains, never caches).
// Returns the seconds spent training (0 when loaded).
double ensure_ghn(pddl::core::PredictDdl& pddl,
                  const pddl::workload::DatasetDescriptor& dataset,
                  const Options& opt);

// Trains (or finds) and caches the GHNs of every dataset the workloads
// serve; returns false when a GHN could not be produced.
bool prepare_ghns(const Options& opt);

// The 51-pair serving mix: Table II CIFAR-10 CNNs plus the bert/gpt
// families on wikitext103, each on p100×4, p100×16 and e5_2630×8.
std::vector<pddl::core::PredictRequest> serving_mix();
std::vector<pddl::workload::DlWorkload> serving_workloads();

// Server SKUs of the serving mix.  The serving predictors are fitted on a
// campaign over each, so no request of the mix is an extrapolation (a
// predictor fitted on p100 rows alone misses e5_2630 clusters by ~90 %,
// which trips the feedback loop's drift detector under observe traffic).
inline constexpr const char* kServingSkus[] = {"p100", "e5_2630"};

// Measurement campaign of `dataset` on `sku` servers: the paper's sweep
// (1–20 servers, batch 32/64, data parallel) over the 31 image models for
// cifar10 and the 9 transformers for wikitext103.  The serving mix is data
// parallel only, so unlike predict_server the transformer campaign is not
// crossed with pp/tp strategies (that would make every set-up fit five
// times the rows).
pddl::sim::CampaignConfig serving_campaign(const std::string& dataset,
                                           const std::string& sku);

// Timings of fitting one dataset's predictor on a fresh campaign.
struct FitTimes {
  double campaign_s = 0.0;
  double fit_s = 0.0;
};
// Runs the dataset's campaign on every serving SKU and fits its predictor.
FitTimes campaign_and_fit(pddl::core::PredictDdl& pddl,
                          const pddl::sim::DdlSimulator& simulator,
                          const std::string& dataset, Tracer& tracer);

// Provenance block: per-dataset served GHN checksum, precision, SIMD
// dispatch level, CPU model, usable CPUs and the commit.
void record_provenance(Report& report, const Options& opt,
                       pddl::core::PredictDdl& pddl,
                       const std::vector<std::string>& datasets);

// Layer micro-probes shared by every traced run: graph build and
// fingerprint over the serving mix, wire codec, batched embed at widths 1
// and 8, the embed GEMM, feature assembly and regressor evaluation.
void layer_probes(pddl::core::PredictDdl& pddl, Tracer& tracer,
                  Report& report);

// Writes the tracer's spans (one JSON object per line) and a per-name
// count / total / self-time table into the detail object.
void dump_trace(const Tracer& tracer, const Options& opt, Report& report);

// ---- workloads ----
void run_serve_hot(const Options& opt, Tracer& tracer, Report& report);
void run_whatif_sweep(const Options& opt, Tracer& tracer, Report& report);
void run_offline_train(const Options& opt, Tracer& tracer, Report& report);

}  // namespace perfbench
