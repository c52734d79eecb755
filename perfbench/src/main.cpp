// perfbench: one workload of the repository benchmark per invocation.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --ghn-cache DIR [--trace-out FILE] [--commit C]
//             [--source-digest D] [--smoke]
//
// Prints a detail object (provenance, phases, sample counts) and, as the
// last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits 1
// when a correctness check fails, 2 on bad arguments.  Normally driven by
// perfbench/run.py, which builds this binary first.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed line against it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"p50_ms", "ms"},   {"preds_per_s", "1/s"},
    {"train_s", "s"},       {"mre", "ratio"},   {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"rpc.overhead_us.p50", "us"},       {"rpc.overhead_us.p99", "us"},
    {"rpc.codec_us", "us"},              {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},        {"serve.residual_ms.p50", "ms"},
    {"serve.residual_ms.p99", "ms"},     {"serve.cache_lookup_us.p50", "us"},
    {"serve.batch_size.mean", "count"},  {"serve.batch_size.base", "count"},
    {"serve.cache_hit_ratio", "ratio"},  {"serve.cache_hit_ratio.base", "count"},
    {"graph.build_us", "us"},            {"graph.fingerprint_us", "us"},
    {"core.infer_us", "us"},             {"feedback.observe_ms.p50", "ms"},
    {"feedback.observe_ms.p99", "ms"},   {"feedback.refits", "count"},
    {"ghn.embed_ms.p50", "ms"},          {"ghn.embed_ms.p99", "ms"},
    {"ghn.batch_width.mean", "count"},   {"serve.coalesced_ratio", "ratio"},
    {"ghn.embed_us_per_node.w1", "us"},  {"ghn.embed_us_per_node.w8", "us"},
    {"tensor.gemm_gflops", "GFLOP/s"},   {"ghn.arena_mb", "MB"},
    {"core.features_us", "us"},          {"regress.predict_us", "us"},
    {"whatif.embed_share", "ratio"},     {"whatif.embed_share.base", "s"},
    {"ghn.train_s", "s"},                {"simulator.campaign_s", "s"},
    {"regress.fit_s", "s"},              {"serve.warm_up_s", "s"},
    {"gen.late_ms.p99", "ms"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve_hot|whatif_sweep|offline_train"
               " --seed N --seconds S --trace 0|1 --ghn-cache DIR "
               "[--trace-out FILE] [--commit C] [--source-digest D] [--smoke]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--ghn-cache" && has) {
      opt.ghn_cache = argv[++i];
    } else if (a == "--trace-out" && has) {
      opt.trace_out = argv[++i];
    } else if (a == "--commit" && has) {
      opt.commit = argv[++i];
    } else if (a == "--source-digest" && has) {
      opt.source_digest = argv[++i];
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (!(opt.seconds > 0.0)) return usage(argv[0]);

  Tracer tracer(opt.trace);
  Report report;
  try {
    if (opt.workload == "prepare") {
      // Trains and caches the GHNs of this build, in a process of its own so
      // that no measured run pays for (or is disturbed by) the training.
      return prepare_ghns(opt) ? 0 : 1;
    }
    if (opt.workload == "serve_hot") {
      run_serve_hot(opt, tracer, report);
    } else if (opt.workload == "whatif_sweep") {
      run_whatif_sweep(opt, tracer, report);
    } else if (opt.workload == "offline_train") {
      run_offline_train(opt, tracer, report);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.detail_str("workload", opt.workload);
  report.detail_num("seed", static_cast<double>(opt.seed));
  report.detail_num("seconds", opt.seconds);
  report.detail_str("trace", opt.trace ? "on" : "off");

  std::vector<std::pair<std::string, std::string>> selected;
  if (opt.trace) {
    dump_trace(tracer, opt, report);
    // Layers this workload does not exercise read 0; name them.
    std::string idle = "[";
    for (const MetricDef& m : kPerLayer) {
      if (!report.has(m.name)) report.metric(m.name, 0.0, m.unit);
      if (report.value(m.name) == 0.0) {
        idle += std::string(idle.size() > 1 ? ", " : "") + json_str(m.name);
      }
    }
    report.detail("idle_layer_metrics", idle + "]");
    // The end-to-end metrics of a traced run, for the tracing overhead.
    std::vector<std::pair<std::string, std::string>> e2e;
    for (const MetricDef& m : kEndToEnd) {
      if (report.has(m.name)) e2e.emplace_back(m.name, json_num(report.value(m.name)));
    }
    report.detail("traced_end_to_end", json_obj(e2e));
    for (const MetricDef& m : kPerLayer) selected.emplace_back(m.name, m.unit);
  } else {
    for (const MetricDef& m : kEndToEnd) selected.emplace_back(m.name, m.unit);
  }
  std::printf("%s\n", report.detail_json().c_str());
  std::string missing;
  const std::string final_line = report.final_json(selected, missing);
  if (!missing.empty()) {
    std::fprintf(stderr, "perfbench: metric missing or with a wrong unit: %s\n",
                 missing.c_str());
    return 1;
  }
  std::printf("%s\n", final_line.c_str());
  std::fflush(stdout);
  for (const std::string& e : report.errors()) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n", e.c_str());
  }
  return report.correct() ? 0 : 1;
}
