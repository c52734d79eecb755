#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace pddl::serve {

std::size_t LatencyHistogram::bucket_index(double ms) {
  const double r = ms / kMinMs;
  if (!(r >= 1.0)) return 0;  // below kMinMs (and NaN)
  if (!(r < std::ldexp(1.0, static_cast<int>(kOctaves)))) return kBuckets - 1;
  // r = m·2^e with m in [0.5, 1): octave e−1, and 2m−1 in [0, 1) is the
  // linear position inside the octave.
  int e = 0;
  const double m = std::frexp(r, &e);
  return 1 + static_cast<std::size_t>(e - 1) * kSubBuckets +
         static_cast<std::size_t>((2.0 * m - 1.0) * kSubBuckets);
}

double LatencyHistogram::bucket_lower_ms(std::size_t i) {
  if (i == 0) return 0.0;
  if (i >= kBuckets - 1) return std::ldexp(kMinMs, static_cast<int>(kOctaves));
  const std::size_t octave = (i - 1) / kSubBuckets;
  const std::size_t sub = (i - 1) % kSubBuckets;
  return std::ldexp(kMinMs * (1.0 + static_cast<double>(sub) / kSubBuckets),
                    static_cast<int>(octave));
}

double LatencyHistogram::bucket_upper_ms(std::size_t i) {
  return i >= kBuckets - 1 ? std::numeric_limits<double>::infinity()
                           : bucket_lower_ms(i + 1);
}

void LatencyHistogram::record(double ms) {
  if (!(ms >= 0.0)) ms = 0.0;  // clamp NaN / negative clock skew
  counts_[bucket_index(ms)].fetch_add(1, std::memory_order_relaxed);
  const auto ns = static_cast<std::uint64_t>(ms * 1e6);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t prev = max_ns_.load(std::memory_order_relaxed);
  while (prev < ns &&
         !max_ns_.compare_exchange_weak(prev, ns, std::memory_order_relaxed)) {
  }
}

std::array<std::uint64_t, LatencyHistogram::kBuckets>
LatencyHistogram::bucket_counts() const {
  std::array<std::uint64_t, kBuckets> out{};
  for (std::size_t i = 0; i < kBuckets; ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

namespace {
// Quantile from bucket counts: find the bucket holding the q-th sample and
// interpolate linearly between its bounds.  The overflow bucket reports its
// lower bound (refined to max_ms by the caller when it is the last one).
double bucket_quantile(const std::array<std::uint64_t,
                                        LatencyHistogram::kBuckets>& counts,
                       std::uint64_t total, double q, double max_ms) {
  const double target = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t next = cum + counts[i];
    if (static_cast<double>(next) >= target && counts[i] > 0) {
      // Overflow bucket has no upper bound: report the observed max.
      if (i == LatencyHistogram::kBuckets - 1) return max_ms;
      const double lo = LatencyHistogram::bucket_lower_ms(i);
      const double hi = LatencyHistogram::bucket_upper_ms(i);
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(counts[i]);
      return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
    }
    cum = next;
  }
  return max_ms;
}
}  // namespace

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot s;
  const auto counts = bucket_counts();
  for (std::uint64_t c : counts) s.count += c;
  s.max_ms = static_cast<double>(max_ns_.load(std::memory_order_relaxed)) / 1e6;
  if (s.count == 0) return s;
  s.mean_ms = static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) /
              1e6 / static_cast<double>(s.count);
  // Interpolation inside a bucket can overshoot the largest observation;
  // clamp so pXX ≤ max always holds in dumps.
  s.p50_ms = std::min(bucket_quantile(counts, s.count, 0.50, s.max_ms), s.max_ms);
  s.p95_ms = std::min(bucket_quantile(counts, s.count, 0.95, s.max_ms), s.max_ms);
  s.p99_ms = std::min(bucket_quantile(counts, s.count, 0.99, s.max_ms), s.max_ms);
  return s;
}

const std::array<double, DistanceHistogram::kBuckets - 1>&
DistanceHistogram::bucket_bounds() {
  // 1-2-5 decades from 1e-5 to 2: dense near zero where same-family
  // neighbour distances land, coarse toward the ε-rejection region.
  static const std::array<double, kBuckets - 1> bounds = {
      1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3,
      5e-3, 0.01, 0.02, 0.05, 0.1,  0.5,  2.0};
  return bounds;
}

void DistanceHistogram::record(double d) {
  if (!(d >= 0.0)) d = 0.0;  // clamp NaN / negative rounding noise
  const auto& bounds = bucket_bounds();
  const std::size_t idx =
      std::upper_bound(bounds.begin(), bounds.end(), d) - bounds.begin();
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  const auto fixed = static_cast<std::uint64_t>(d * 1e9);
  sum_1e9_.fetch_add(fixed, std::memory_order_relaxed);
  std::uint64_t prev = max_1e9_.load(std::memory_order_relaxed);
  while (prev < fixed && !max_1e9_.compare_exchange_weak(
                             prev, fixed, std::memory_order_relaxed)) {
  }
}

std::array<std::uint64_t, DistanceHistogram::kBuckets>
DistanceHistogram::bucket_counts() const {
  std::array<std::uint64_t, kBuckets> out{};
  for (std::size_t i = 0; i < kBuckets; ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

DistanceHistogram::Snapshot DistanceHistogram::snapshot() const {
  Snapshot s;
  const auto counts = bucket_counts();
  for (std::uint64_t c : counts) s.count += c;
  s.max = static_cast<double>(max_1e9_.load(std::memory_order_relaxed)) / 1e9;
  if (s.count == 0) return s;
  s.mean = static_cast<double>(sum_1e9_.load(std::memory_order_relaxed)) /
           1e9 / static_cast<double>(s.count);
  const auto& bounds = bucket_bounds();
  auto quantile = [&](double q) {
    const double target = q * static_cast<double>(s.count);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const std::uint64_t next = cum + counts[i];
      if (static_cast<double>(next) >= target && counts[i] > 0) {
        if (i == bounds.size()) return s.max;
        const double lo = i == 0 ? 0.0 : bounds[i - 1];
        const double hi = bounds[i];
        const double frac = (target - static_cast<double>(cum)) /
                            static_cast<double>(counts[i]);
        return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
      }
      cum = next;
    }
    return s.max;
  };
  s.p50 = std::min(quantile(0.50), s.max);
  s.p95 = std::min(quantile(0.95), s.max);
  s.p99 = std::min(quantile(0.99), s.max);
  return s;
}

void ServiceMetrics::note_arena(std::size_t capacity_bytes,
                                std::size_t chunks) {
  const auto bytes = static_cast<std::uint64_t>(capacity_bytes);
  std::uint64_t prev = arena_hwm_bytes.load(std::memory_order_relaxed);
  while (prev < bytes) {
    if (arena_hwm_bytes.compare_exchange_weak(prev, bytes,
                                              std::memory_order_relaxed)) {
      // This thread advanced the high-water mark; its chunk count is the
      // one that belongs with it.  A racing larger arena will overwrite
      // both fields, so the pair stays coherent enough for telemetry.
      arena_chunks.store(static_cast<std::uint64_t>(chunks),
                         std::memory_order_relaxed);
      return;
    }
  }
}

void ServiceMetrics::record_batch_size(std::size_t n) {
  if (n == 0) return;
  batches_dispatched.fetch_add(1, std::memory_order_relaxed);
  const std::size_t idx = std::min(n, kMaxTrackedBatchSize + 1) - 1;
  batch_size_counts[idx].fetch_add(1, std::memory_order_relaxed);
}

void ServiceMetrics::record_embed_batch(std::size_t unique_graphs,
                                        std::size_t coalesced) {
  if (unique_graphs == 0) return;
  embed_batches.fetch_add(1, std::memory_order_relaxed);
  embed_batch_graphs.fetch_add(unique_graphs, std::memory_order_relaxed);
  if (coalesced != 0) {
    embed_coalesced.fetch_add(coalesced, std::memory_order_relaxed);
  }
  const std::size_t idx = std::min(unique_graphs, kMaxTrackedBatchSize + 1) - 1;
  embed_batch_size_counts[idx].fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot ServiceMetrics::snapshot() const {
  MetricsSnapshot s;
  s.submitted = submitted.load(std::memory_order_relaxed);
  s.completed = completed.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_queue_full.load(std::memory_order_relaxed);
  s.rejected_untrained = rejected_untrained.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired.load(std::memory_order_relaxed);
  s.errors = errors.load(std::memory_order_relaxed);
  s.observations_ingested =
      observations_ingested.load(std::memory_order_relaxed);
  s.observations_rejected =
      observations_rejected.load(std::memory_order_relaxed);
  s.drift_events = drift_events.load(std::memory_order_relaxed);
  s.refits_started = refits_started.load(std::memory_order_relaxed);
  s.refits_completed = refits_completed.load(std::memory_order_relaxed);
  s.refits_failed = refits_failed.load(std::memory_order_relaxed);
  s.engine_swaps = engine_swaps.load(std::memory_order_relaxed);
  s.ghn_drift_events = ghn_drift_events.load(std::memory_order_relaxed);
  s.retrains_started = retrains_started.load(std::memory_order_relaxed);
  s.retrains_completed = retrains_completed.load(std::memory_order_relaxed);
  s.retrains_failed = retrains_failed.load(std::memory_order_relaxed);
  s.ghn_swaps = ghn_swaps.load(std::memory_order_relaxed);
  s.batches_dispatched = batches_dispatched.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.batch_size_counts.size(); ++i) {
    s.batch_size_counts[i] =
        batch_size_counts[i].load(std::memory_order_relaxed);
  }
  s.embed_batches = embed_batches.load(std::memory_order_relaxed);
  s.embed_batch_graphs = embed_batch_graphs.load(std::memory_order_relaxed);
  s.embed_coalesced = embed_coalesced.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.embed_batch_size_counts.size(); ++i) {
    s.embed_batch_size_counts[i] =
        embed_batch_size_counts[i].load(std::memory_order_relaxed);
  }
  s.arena_hwm_bytes = arena_hwm_bytes.load(std::memory_order_relaxed);
  s.arena_chunks = arena_chunks.load(std::memory_order_relaxed);
  s.e2e = e2e_ms.snapshot();
  s.queue = queue_ms.snapshot();
  s.service = service_ms.snapshot();
  s.embed_hit = embed_hit_ms.snapshot();
  s.embed_miss = embed_miss_ms.snapshot();
  s.reuse_distance = reuse_distance.snapshot();
  return s;
}

double MetricsSnapshot::mean_batch_size() const {
  if (batches_dispatched == 0) return 0.0;
  std::uint64_t weighted = 0;
  for (std::size_t i = 0; i < batch_size_counts.size(); ++i) {
    weighted += batch_size_counts[i] * (i + 1);
  }
  return static_cast<double>(weighted) /
         static_cast<double>(batches_dispatched);
}

double MetricsSnapshot::mean_embed_batch_width() const {
  if (embed_batches == 0) return 0.0;
  return static_cast<double>(embed_batch_graphs) /
         static_cast<double>(embed_batches);
}

std::string MetricsSnapshot::to_string() const {
  char buf[2048];
  auto line = [&buf](const LatencyHistogram::Snapshot& h) {
    char lbuf[256];
    std::snprintf(lbuf, sizeof(lbuf),
                  "n=%llu mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms "
                  "max=%.3fms",
                  static_cast<unsigned long long>(h.count), h.mean_ms,
                  h.p50_ms, h.p95_ms, h.p99_ms, h.max_ms);
    return std::string(lbuf);
  };
  std::snprintf(
      buf, sizeof(buf),
      "serve metrics\n"
      "  requests : submitted=%llu completed=%llu errors=%llu\n"
      "  rejected : queue_full=%llu untrained=%llu deadline=%llu\n"
      "  cache    : hits=%llu misses=%llu hit_rate=%.1f%% entries=%llu "
      "evictions=%llu\n"
      "  e2e      : %s\n"
      "  queue    : %s\n"
      "  service  : %s\n"
      "  embed hit: %s\n"
      "  embed mis: %s\n",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(rejected_queue_full),
      static_cast<unsigned long long>(rejected_untrained),
      static_cast<unsigned long long>(deadline_expired),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses), 100.0 * cache_hit_rate(),
      static_cast<unsigned long long>(cache_entries),
      static_cast<unsigned long long>(cache_evictions), line(e2e).c_str(),
      line(queue).c_str(), line(service).c_str(), line(embed_hit).c_str(),
      line(embed_miss).c_str());
  std::string out = buf;
  // The rpc line only appears when a transport actually served traffic, so
  // in-process dumps are unchanged.
  if (rpc_connections_accepted != 0 || rpc_connections_rejected != 0 ||
      rpc_frame_errors != 0) {
    std::snprintf(
        buf, sizeof(buf),
        "  rpc      : conns=%llu active=%llu rejected=%llu frames_in=%llu "
        "frames_out=%llu frame_errors=%llu read_timeouts=%llu\n",
        static_cast<unsigned long long>(rpc_connections_accepted),
        static_cast<unsigned long long>(rpc_connections_active),
        static_cast<unsigned long long>(rpc_connections_rejected),
        static_cast<unsigned long long>(rpc_frames_received),
        static_cast<unsigned long long>(rpc_frames_sent),
        static_cast<unsigned long long>(rpc_frame_errors),
        static_cast<unsigned long long>(rpc_read_timeouts));
    out += buf;
  }
  if (batches_dispatched != 0) {
    std::snprintf(buf, sizeof(buf),
                  "  batch    : dispatched=%llu mean_size=%.2f\n",
                  static_cast<unsigned long long>(batches_dispatched),
                  mean_batch_size());
    out += buf;
  }
  // The batched-embed line appears only once that path ran, so dumps from
  // older configurations keep their exact shape.
  if (embed_batches != 0 || embed_coalesced != 0) {
    std::snprintf(buf, sizeof(buf),
                  "  embatch  : batches=%llu graphs=%llu mean_width=%.2f "
                  "coalesced=%llu\n",
                  static_cast<unsigned long long>(embed_batches),
                  static_cast<unsigned long long>(embed_batch_graphs),
                  mean_embed_batch_width(),
                  static_cast<unsigned long long>(embed_coalesced));
    out += buf;
  }
  // Like rpc, the feedback line only appears once the loop saw traffic.
  if (observations_ingested != 0 || observations_rejected != 0 ||
      refits_started != 0) {
    std::snprintf(
        buf, sizeof(buf),
        "  feedback : observed=%llu rejected=%llu drift_events=%llu "
        "refits=%llu/%llu (failed=%llu) engine_swaps=%llu\n",
        static_cast<unsigned long long>(observations_ingested),
        static_cast<unsigned long long>(observations_rejected),
        static_cast<unsigned long long>(drift_events),
        static_cast<unsigned long long>(refits_completed),
        static_cast<unsigned long long>(refits_started),
        static_cast<unsigned long long>(refits_failed),
        static_cast<unsigned long long>(engine_swaps));
    out += buf;
  }
  // Retrain line: only once the GHN retrain loop saw activity, so dumps from
  // servers without --auto-retrain keep their exact shape.
  if (ghn_drift_events != 0 || retrains_started != 0 || ghn_swaps != 0 ||
      cache_stale_drops != 0) {
    std::snprintf(
        buf, sizeof(buf),
        "  retrain  : ghn_drift=%llu retrains=%llu/%llu (failed=%llu) "
        "ghn_swaps=%llu cache_stale_drops=%llu\n",
        static_cast<unsigned long long>(ghn_drift_events),
        static_cast<unsigned long long>(retrains_completed),
        static_cast<unsigned long long>(retrains_started),
        static_cast<unsigned long long>(retrains_failed),
        static_cast<unsigned long long>(ghn_swaps),
        static_cast<unsigned long long>(cache_stale_drops));
    out += buf;
  }
  // Reuse and arena lines appear only once the reuse index / embed path saw
  // traffic, so pre-reuse dumps keep their exact shape.
  if (reuse_hits != 0 || reuse_rejected != 0 || reuse_misses != 0 ||
      reuse_inserts != 0 || reuse_invalidations != 0 || reuse_entries != 0) {
    std::snprintf(
        buf, sizeof(buf),
        "  reuse    : hits=%llu rejected=%llu misses=%llu entries=%llu "
        "inserts=%llu evictions=%llu invalidations=%llu dist_p50=%.4f "
        "dist_max=%.4f\n",
        static_cast<unsigned long long>(reuse_hits),
        static_cast<unsigned long long>(reuse_rejected),
        static_cast<unsigned long long>(reuse_misses),
        static_cast<unsigned long long>(reuse_entries),
        static_cast<unsigned long long>(reuse_inserts),
        static_cast<unsigned long long>(reuse_evictions),
        static_cast<unsigned long long>(reuse_invalidations),
        reuse_distance.p50, reuse_distance.max);
    out += buf;
  }
  if (arena_hwm_bytes != 0) {
    std::snprintf(buf, sizeof(buf),
                  "  arena    : hwm_bytes=%llu chunks=%llu\n",
                  static_cast<unsigned long long>(arena_hwm_bytes),
                  static_cast<unsigned long long>(arena_chunks));
    out += buf;
  }
  // Engine line: only service-level snapshots fill these, so raw
  // ServiceMetrics dumps (and pre-precision fixtures) keep their shape.
  if (!engine_precision.empty() || !kernel_dispatch.empty()) {
    std::snprintf(buf, sizeof(buf), "  engine   : precision=%s dispatch=%s\n",
                  engine_precision.c_str(), kernel_dispatch.c_str());
    out += buf;
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{";
  auto num = [&out](const char* key, std::uint64_t v, bool comma = true) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\":%llu%s", key,
                  static_cast<unsigned long long>(v), comma ? "," : "");
    out += buf;
  };
  auto hist = [&out](const char* key, const LatencyHistogram::Snapshot& h,
                     bool comma = true) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"count\":%llu,\"mean_ms\":%.6f,\"p50_ms\":%.6f,"
                  "\"p95_ms\":%.6f,\"p99_ms\":%.6f,\"max_ms\":%.6f}%s",
                  key, static_cast<unsigned long long>(h.count), h.mean_ms,
                  h.p50_ms, h.p95_ms, h.p99_ms, h.max_ms, comma ? "," : "");
    out += buf;
  };
  num("submitted", submitted);
  num("completed", completed);
  num("cache_hits", cache_hits);
  num("cache_misses", cache_misses);
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"cache_hit_rate\":%.6f,",
                  cache_hit_rate());
    out += buf;
  }
  num("rejected_queue_full", rejected_queue_full);
  num("rejected_untrained", rejected_untrained);
  num("deadline_expired", deadline_expired);
  num("errors", errors);
  num("cache_entries", cache_entries);
  num("cache_evictions", cache_evictions);
  num("cache_stale_drops", cache_stale_drops);
  out += "\"rpc\":{";
  num("connections_accepted", rpc_connections_accepted);
  num("connections_active", rpc_connections_active);
  num("connections_rejected", rpc_connections_rejected);
  num("frames_received", rpc_frames_received);
  num("frames_sent", rpc_frames_sent);
  num("frame_errors", rpc_frame_errors);
  num("read_timeouts", rpc_read_timeouts, /*comma=*/false);
  out += "},";
  out += "\"feedback\":{";
  num("observations_ingested", observations_ingested);
  num("observations_rejected", observations_rejected);
  num("drift_events", drift_events);
  num("refits_started", refits_started);
  num("refits_completed", refits_completed);
  num("refits_failed", refits_failed);
  num("engine_swaps", engine_swaps, /*comma=*/false);
  out += "},";
  out += "\"retrain\":{";
  num("ghn_drift_events", ghn_drift_events);
  num("retrains_started", retrains_started);
  num("retrains_completed", retrains_completed);
  num("retrains_failed", retrains_failed);
  num("ghn_swaps", ghn_swaps, /*comma=*/false);
  out += "},";
  out += "\"reuse\":{";
  num("hits", reuse_hits);
  num("rejected", reuse_rejected);
  num("misses", reuse_misses);
  num("inserts", reuse_inserts);
  num("evictions", reuse_evictions);
  num("invalidations", reuse_invalidations);
  num("entries", reuse_entries);
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"distance\":{\"count\":%llu,\"mean\":%.9f,\"p50\":%.9f,"
                  "\"p95\":%.9f,\"p99\":%.9f,\"max\":%.9f}",
                  static_cast<unsigned long long>(reuse_distance.count),
                  reuse_distance.mean, reuse_distance.p50, reuse_distance.p95,
                  reuse_distance.p99, reuse_distance.max);
    out += buf;
  }
  out += "},";
  out += "\"arena\":{";
  num("hwm_bytes", arena_hwm_bytes);
  num("chunks", arena_chunks, /*comma=*/false);
  out += "},";
  out += "\"engine\":{\"precision\":\"" + engine_precision +
         "\",\"dispatch\":\"" + kernel_dispatch + "\"},";
  out += "\"batch\":{";
  num("dispatched", batches_dispatched);
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"mean_size\":%.6f,", mean_batch_size());
    out += buf;
  }
  out += "\"size_counts\":[";
  for (std::size_t i = 0; i < batch_size_counts.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu%s",
                  static_cast<unsigned long long>(batch_size_counts[i]),
                  i + 1 < batch_size_counts.size() ? "," : "");
    out += buf;
  }
  out += "]},";
  out += "\"embed_batch\":{";
  num("batches", embed_batches);
  num("graphs", embed_batch_graphs);
  num("coalesced", embed_coalesced);
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"mean_width\":%.6f,",
                  mean_embed_batch_width());
    out += buf;
  }
  out += "\"width_counts\":[";
  for (std::size_t i = 0; i < embed_batch_size_counts.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu%s",
                  static_cast<unsigned long long>(embed_batch_size_counts[i]),
                  i + 1 < embed_batch_size_counts.size() ? "," : "");
    out += buf;
  }
  out += "]},";
  hist("e2e", e2e);
  hist("queue", queue);
  hist("service", service);
  hist("embed_hit", embed_hit);
  hist("embed_miss", embed_miss, /*comma=*/false);
  out += "}";
  return out;
}

}  // namespace pddl::serve
