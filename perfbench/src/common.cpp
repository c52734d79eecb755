// Report, environment, set-up and layer probes shared by the workloads.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench.hpp"
#include "ghn/infer.hpp"
#include "rpc/wire.hpp"
#include "simulator/campaign.hpp"
#include "tensor/simd.hpp"

namespace perfbench {

using namespace pddl;

// ---------------------------------------------------------------- JSON ----

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) out += (i ? ", " : "") + json_num(xs[i]);
  return out + "]";
}

std::string json_obj(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i) out += ", ";
    out += json_str(kv[i].first) + ": " + kv[i].second;
  }
  return out + "}";
}

std::string json_summary(const Summary& s) {
  return json_obj({{"n", json_num(static_cast<double>(s.count))},
                   {"p50", json_num(s.p50)},
                   {"tail_q", json_num(s.tail_q)},
                   {"tail", json_num(s.tail)},
                   {"mean", json_num(s.mean)},
                   {"max", json_num(s.max)}});
}

std::string json_phase(const PhaseResult& p) {
  return json_obj({{"rate", json_num(p.rate)},
                   {"seconds", json_num(p.seconds)},
                   {"attempted", json_num(static_cast<double>(p.attempted))},
                   {"ok", json_num(static_cast<double>(p.ok))},
                   {"failed", json_num(static_cast<double>(p.failed))},
                   {"latency_ms", json_summary(p.latency())},
                   {"late_ms", json_summary(p.lateness())}});
}

// -------------------------------------------------------------- Report ----

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::detail(const std::string& key, const std::string& json) {
  detail_.emplace_back(key, json);
}

void Report::detail_num(const std::string& key, double v) {
  detail(key, json_num(v));
}

void Report::detail_str(const std::string& key, const std::string& v) {
  detail(key, json_str(v));
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Report::count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::detail_json() const {
  std::vector<std::pair<std::string, std::string>> kv = detail_;
  std::string errs = "[";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    errs += (i ? ", " : "") + json_str(errors_[i]);
  }
  kv.emplace_back("correctness_failures", errs + "]");
  return json_obj({{"perfbench_detail", json_obj(kv)}});
}

std::string Report::final_json(
    const std::vector<std::pair<std::string, std::string>>& selected,
    std::string& missing) const {
  std::vector<std::pair<std::string, std::string>> ms;
  for (const auto& [name, unit] : selected) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end() || it->second.unit != unit) {
      missing += (missing.empty() ? "" : ", ") + name;
      continue;
    }
    ms.emplace_back(name, json_obj({{"value", json_num(it->second.value)},
                                    {"unit", json_str(unit)}}));
  }
  return json_obj({{"correct", correct() ? "true" : "false"},
                   {"attempted", json_num(static_cast<double>(attempted_))},
                   {"failed", json_num(static_cast<double>(failed_))},
                   {"metrics", json_obj(ms)}});
}

// --------------------------------------------------------- environment ----

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(Tracer::now_ns() - t0_ns) / 1e9;
}

// -------------------------------------------------------------- set-up ----

core::PredictDdlOptions predictor_options(bool smoke) {
  core::PredictDdlOptions opts;
  if (smoke) {
    opts.ghn.hidden_dim = 12;
    opts.ghn.mlp_hidden = 12;
    opts.ghn_trainer.corpus_size = 10;
    opts.ghn_trainer.epochs = 4;
    opts.ghn_trainer.batch_size = 5;
    opts.ghn_trainer.darts.max_cells = 3;
  } else {
    opts.ghn.hidden_dim = 32;
    opts.ghn.mlp_hidden = 32;
    opts.ghn_trainer.corpus_size = 96;
    opts.ghn_trainer.epochs = 24;
    opts.ghn_trainer.batch_size = 8;
  }
  return opts;
}

double ensure_ghn(core::PredictDdl& pddl,
                  const workload::DatasetDescriptor& dataset,
                  const Options& opt) {
  namespace fs = std::filesystem;
  if (!opt.smoke) {
    PDDL_CHECK(!opt.ghn_cache.empty(), "--ghn-cache is required");
    const fs::path path = fs::path(opt.ghn_cache) / ("ghn_" + dataset.name + ".bin");
    if (fs::exists(path)) {
      pddl.registry().put(dataset.name, ghn::load_ghn(path.string()));
      return 0.0;
    }
  }
  const std::int64_t t0 = Tracer::now_ns();
  pddl.ensure_ghn(dataset);
  const double trained_s = seconds_since(t0);
  if (!opt.smoke) {
    fs::create_directories(opt.ghn_cache);
    const fs::path path = fs::path(opt.ghn_cache) / ("ghn_" + dataset.name + ".bin");
    const fs::path tmp = path.string() + ".tmp";
    ghn::save_ghn(tmp.string(), *pddl.registry().model(dataset.name));
    fs::rename(tmp, path);  // atomic: a reader never sees half a file
  }
  return trained_s;
}

bool prepare_ghns(const Options& opt) {
  Library lib(opt);
  for (const auto& ds : {workload::cifar10(), workload::wikitext103()}) {
    const double s = ensure_ghn(lib.pddl, ds, opt);
    std::fprintf(stderr, "perfbench: GHN for %s: %s\n", ds.name.c_str(),
                 s > 0 ? ("trained in " + std::to_string(s) + " s").c_str() : "cached");
    if (!lib.pddl.registry().has_model(ds.name)) return false;
  }
  return true;
}

std::vector<workload::DlWorkload> serving_workloads() {
  std::vector<workload::DlWorkload> ws = workload::table2_cifar_workloads();
  for (auto& w : workload::transformer_workloads()) ws.push_back(std::move(w));
  return ws;
}

std::vector<core::PredictRequest> serving_mix() {
  const struct {
    const char* sku;
    int servers;
  } clusters[] = {{"p100", 4}, {"p100", 16}, {"e5_2630", 8}};
  std::vector<core::PredictRequest> reqs;
  for (const workload::DlWorkload& w : serving_workloads()) {
    for (const auto& c : clusters) {
      core::PredictRequest req;
      req.workload = w;
      req.cluster = cluster::make_uniform_cluster(c.sku, c.servers);
      reqs.push_back(std::move(req));
    }
  }
  return reqs;
}

sim::CampaignConfig serving_campaign(const std::string& dataset,
                                     const std::string& sku) {
  sim::CampaignConfig cc;
  cc.include_cifar10 = dataset == "cifar10";
  cc.include_tiny_imagenet = false;
  cc.include_wikitext103 = dataset == "wikitext103";
  cc.cifar_sku = sku;
  cc.wikitext_sku = sku;
  return cc;
}

FitTimes campaign_and_fit(core::PredictDdl& pddl,
                          const sim::DdlSimulator& simulator,
                          const std::string& dataset, Tracer& tracer) {
  FitTimes t;
  std::int64_t t0 = Tracer::now_ns();
  std::vector<sim::Measurement> ms;
  {
    Span span(tracer, "simulator.run_campaign");
    for (const char* sku : kServingSkus) {
      for (auto& m : sim::run_campaign(simulator, serving_campaign(dataset, sku),
                                       pddl.pool())) {
        ms.push_back(std::move(m));
      }
    }
  }
  t.campaign_s = seconds_since(t0);
  t0 = Tracer::now_ns();
  {
    Span span(tracer, "regress.fit_predictor");
    pddl.fit_predictor(dataset, ms);
  }
  t.fit_s = seconds_since(t0);
  return t;
}

void record_provenance(Report& report, const Options& opt,
                       core::PredictDdl& pddl,
                       const std::vector<std::string>& datasets) {
  std::vector<std::pair<std::string, std::string>> sums;
  for (const std::string& ds : datasets) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      pddl.registry().model_checksum(ds)));
    sums.emplace_back(ds, json_str(hex));
  }
  report.detail(
      "provenance",
      json_obj({{"ghn_checksum", json_obj(sums)},
                {"ghn_source", json_str(opt.smoke ? "trained in-process (smoke)"
                                                  : "trained by this build")},
                {"precision", json_str("f32")},
                {"simd_dispatch", json_str(simd::active_level_name())},
                {"cpu_model", json_str(cpu_model())},
                {"nproc", json_num(usable_cpus())},
                {"commit", json_str(opt.commit)},
                {"source_digest", json_str(opt.source_digest)}}));
}

// -------------------------------------------------------- layer probes ----

namespace {

// Median over `reps` repetitions of the per-item time of `fn`, which does
// `items` units of work per call, in microseconds.
template <typename Fn>
double median_us_per_item(int reps, std::size_t items, Fn&& fn) {
  std::vector<double> per;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = Tracer::now_ns();
    fn();
    per.push_back(static_cast<double>(Tracer::now_ns() - t0) / 1e3 /
                  static_cast<double>(items));
  }
  return median(per);
}

}  // namespace

void layer_probes(core::PredictDdl& pddl, Tracer& tracer, Report& report) {
  // The part of the serving mix whose dataset this workload's predictor
  // serves (both datasets on the serve workloads, CIFAR-10 elsewhere).
  std::vector<core::PredictRequest> mix;
  for (auto& r : serving_mix()) {
    if (pddl.ready_for(r.workload.dataset.name)) mix.push_back(std::move(r));
  }
  std::vector<workload::DlWorkload> ws;
  for (auto& w : serving_workloads()) {
    if (pddl.ready_for(w.dataset.name)) ws.push_back(std::move(w));
  }
  constexpr int kReps = 7;

  // graph: build and fingerprint every distinct architecture of the mix.
  std::vector<graph::CompGraph> graphs;
  for (const auto& w : ws) graphs.push_back(w.build_graph());
  const double build_us = median_us_per_item(kReps, ws.size(), [&] {
    for (const auto& w : ws) {
      Span span(tracer, "graph.build_graph");
      graph::CompGraph g = w.build_graph();
      (void)g;
    }
  });
  std::uint64_t sink = 0;
  const double fp_us = median_us_per_item(kReps, graphs.size(), [&] {
    for (const auto& g : graphs) {
      Span span(tracer, "graph.structural_fingerprint");
      sink ^= ghn::structural_fingerprint(g);
    }
  });
  report.metric("graph.build_us", build_us, "us");
  report.metric("graph.fingerprint_us", fp_us, "us");

  // rpc: request and response codecs on the mix's predict messages.
  std::size_t req_bytes = 0;
  const double codec_us = median_us_per_item(kReps, mix.size(), [&] {
    req_bytes = 0;
    for (const auto& r : mix) {
      Span span(tracer, "rpc.wire_codec");
      rpc::Request req;
      req.op = rpc::Op::kPredict;
      req.reqs = {r};
      const std::string body = rpc::encode_request(req);
      req_bytes += body.size();
      const rpc::Request back = rpc::decode_request(body);
      rpc::Response resp;
      resp.op = rpc::Op::kPredict;
      serve::ServeResult sr;
      sr.status = serve::ServeStatus::kOk;
      sr.response.predicted_time_s = static_cast<double>(back.reqs.size());
      resp.results = {sr};
      const rpc::Response rback = rpc::decode_response(rpc::encode_response(resp));
      sink ^= rback.results.size();
    }
  });
  report.metric("rpc.codec_us", codec_us, "us");
  report.detail_num("rpc.request_body_bytes_mean",
                    static_cast<double>(req_bytes) / static_cast<double>(mix.size()));

  // ghn: the f32 serving engine at widths 1 and 8, per graph node, on the
  // eight CIFAR-10 CNNs of the mix.
  auto engine = pddl.registry().inference("cifar10", ghn::Precision::kF32);
  std::vector<const graph::CompGraph*> cnn;
  std::size_t nodes = 0;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    if (ws[i].dataset.name != "cifar10") continue;
    cnn.push_back(&graphs[i]);
    nodes += graphs[i].num_nodes();
  }
  std::vector<Vector> outs(cnn.size());
  std::vector<Vector*> out_ptrs;
  for (auto& v : outs) out_ptrs.push_back(&v);
  const double w1 = median_us_per_item(kReps, nodes, [&] {
    for (std::size_t i = 0; i < cnn.size(); ++i) {
      Span span(tracer, "ghn.embed_batch_into.w1");
      engine->embed_batch_into(std::span<const graph::CompGraph* const>(&cnn[i], 1),
                               std::span<Vector* const>(&out_ptrs[i], 1));
    }
  });
  const double w8 = median_us_per_item(kReps, nodes, [&] {
    Span span(tracer, "ghn.embed_batch_into.w8");
    engine->embed_batch_into(
        std::span<const graph::CompGraph* const>(cnn.data(), cnn.size()),
        std::span<Vector* const>(out_ptrs.data(), out_ptrs.size()));
  });
  report.metric("ghn.embed_us_per_node.w1", w1, "us");
  report.metric("ghn.embed_us_per_node.w8", w8, "us");
  report.detail_num("ghn.probe_nodes", static_cast<double>(nodes));

  // tensor: the fused GRU gate product of a width-8 batched embed step,
  // (8 × H) · (H × H)ᵀ in f32.  Bytes are computed from operand sizes.
  {
    const std::size_t m = 8, n = pddl.registry().inference("cifar10")->hidden_dim(),
                      k = n;
    std::vector<float> a(m * k), bt(n * k), out(m * n);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = 0.001f * static_cast<float>(i % 97);
    for (std::size_t i = 0; i < bt.size(); ++i) bt[i] = 0.002f * static_cast<float>(i % 89);
    constexpr std::size_t kCalls = 20000;
    const double us_per_call = median_us_per_item(kReps, kCalls, [&] {
      Span span(tracer, "tensor.matmul_rows_transposed_b_f32");
      for (std::size_t c = 0; c < kCalls; ++c) {
        a[c % a.size()] += 1e-7f;  // keep the calls from being hoisted
        simd::matmul_rows_transposed_b_f32(a.data(), m, bt.data(), n, k, out.data());
      }
    });
    const double flops = 2.0 * static_cast<double>(m * n * k);
    report.metric("tensor.gemm_gflops", flops / (us_per_call * 1e3), "GFLOP/s");
    report.detail("tensor.gemm_shape",
                  json_obj({{"m", json_num(m)}, {"n", json_num(n)}, {"k", json_num(k)},
                            {"flops_per_call", json_num(flops)},
                            {"bytes_per_call", json_num(4.0 * (m * k + n * k + m * n))}}));
    keep(out);
  }

  // core / regress: feature assembly and the poly2 regressor on the mix.
  std::vector<Vector> embeds;
  for (const auto& r : mix) {
    embeds.push_back(pddl.registry().embedding(r.workload.dataset.name,
                                               r.workload.build_graph()));
  }
  std::vector<Vector> feats(mix.size());
  const double feat_us = median_us_per_item(kReps, mix.size(), [&] {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      Span span(tracer, "core.assemble_features");
      feats[i] = pddl.features().assemble_features(embeds[i], mix[i].workload,
                                                   mix[i].cluster);
    }
  });
  double acc = 0.0;
  const double pred_us = median_us_per_item(kReps, mix.size(), [&] {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      Span span(tracer, "regress.predict");
      acc += pddl.engine_if_ready(mix[i].workload.dataset.name)->predict(feats[i]);
    }
  });
  report.metric("core.features_us", feat_us, "us");
  report.metric("regress.predict_us", pred_us, "us");
  keep(sink);
  keep(acc);
}

// ---------------------------------------------------------------- trace ----

void dump_trace(const Tracer& tracer, const Options& opt, Report& report) {
  const std::vector<SpanRecord> spans = tracer.spans();
  // Self time: a span's duration minus the part its children cover.
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Agg {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const auto& s : spans) {
    Agg& a = by_name[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    ++a.count;
    a.total_ms += dur;
    const auto it = child_ns.find(s.id);
    a.self_ms += dur - (it == child_ns.end() ? 0.0 : static_cast<double>(it->second) / 1e6);
  }
  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& [name, a] : by_name) {
    rows.emplace_back(name, json_obj({{"count", json_num(static_cast<double>(a.count))},
                                      {"total_ms", json_num(a.total_ms)},
                                      {"self_ms", json_num(a.self_ms)}}));
  }
  report.detail("spans", json_obj(rows));
  if (opt.trace_out.empty()) return;
  std::filesystem::path out(opt.trace_out);
  if (out.has_parent_path()) std::filesystem::create_directories(out.parent_path());
  std::ofstream f(out);
  for (const auto& s : spans) {
    f << "{\"name\": " << json_str(s.name) << ", \"id\": " << s.id
      << ", \"parent\": " << s.parent << ", \"request\": " << s.request
      << ", \"start_ns\": " << (s.start_ns - tracer.epoch_ns())
      << ", \"end_ns\": " << (s.end_ns - tracer.epoch_ns()) << "}\n";
  }
  report.detail_str("trace_file", opt.trace_out);
  report.detail_num("trace_spans", static_cast<double>(spans.size()));
}

}  // namespace perfbench
