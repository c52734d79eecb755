// Service metrics (serving-layer observability): lock-free atomic counters
// and fixed-layout histograms with percentile snapshots, all described by
// one schema table (PDDL_METRICS below).
//
// Everything on the record path is a relaxed atomic increment on a named
// member — no locks, no allocation, no lookup — so instrumenting the service
// adds nanoseconds per request.  Reading is snapshot-based: snapshot() copies
// the counters once and derives p50/p95/p99 from the bucket counts (linear
// interpolation inside a bucket), so a concurrent reader sees a
// consistent-enough view without stalling writers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace pddl::reuse {
struct ReuseStats;
}

namespace pddl::serve {

// Count, mean, p50/p95/p99 and max of one histogram, in the histogram's unit
// (ms for LatencyHistogram, unitless for DistanceHistogram).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

// Histogram over log-linear latency buckets (HDR-style).  Bucket 0 holds
// [0, kMinMs ≈ 1 µs); each power-of-two octave of [kMinMs, 2^16 ms ≈ 65 s)
// is then split into kSubBuckets equal-width buckets, so no bucket is wider
// than 1/kSubBuckets (1.6 %) of its lower bound and interpolated quantiles
// stay accurate from a µs cache-hit lookup to a multi-second cold embed.
// The last bucket is the overflow.  A sample's bucket comes from its binary
// exponent in O(1), with no search; kMinMs is a power of two, so every
// bucket bound is an exact binary fraction.
class LatencyHistogram {
 public:
  static constexpr double kMinMs = 1.0 / 1024;    // 2^-10 ms ≈ 0.98 µs
  static constexpr std::size_t kOctaves = 26;     // up to 2^16 ms ≈ 65.5 s
  static constexpr std::size_t kSubBuckets = 64;  // linear buckets per octave
  static constexpr std::size_t kBuckets = 1 + kOctaves * kSubBuckets + 1;

  // Bucket of a latency, and the [lower, upper) bounds of bucket i in ms
  // (the overflow bucket's upper bound is +inf).
  static std::size_t bucket_index(double ms);
  static double bucket_lower_ms(std::size_t i);
  static double bucket_upper_ms(std::size_t i);

  void record(double ms);

  using Snapshot = HistogramSnapshot;  // in ms
  Snapshot snapshot() const;

  // Raw bucket counts, indexed like bucket_index() (last entry is the
  // overflow bucket).  Exposed for tests and external scrapers.
  std::array<std::uint64_t, kBuckets> bucket_counts() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

// Histogram over log-spaced cosine-distance buckets, for the reuse index's
// served neighbour distances.  Same lock-free shape as LatencyHistogram but
// with unitless bounds covering 1e-5 (near-identical op mixes) through 2
// (opposed vectors); the sum is kept in 1e-9 fixed point so means stay
// exact for tiny distances.
class DistanceHistogram {
 public:
  static constexpr std::size_t kBuckets = 16;

  // Upper bounds of buckets 0..kBuckets-2; the last bucket is +inf.
  static const std::array<double, kBuckets - 1>& bucket_bounds();
  // [lower, upper) bounds of bucket i (the last bucket's upper is +inf).
  static double bucket_lower(std::size_t i);
  static double bucket_upper(std::size_t i);

  void record(double d);

  using Snapshot = HistogramSnapshot;
  Snapshot snapshot() const;

  std::array<std::uint64_t, kBuckets> bucket_counts() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_1e9_{0};  // Σ distance, ×1e9 fixed point
  std::atomic<std::uint64_t> max_1e9_{0};
};

// Per-dispatch micro-batch sizes are tracked exactly up to this size; larger
// batches land in one overflow slot.  Covers every sane max_batch setting
// (default 8) while keeping the counter array small enough to snapshot and
// ship over the stats op.
inline constexpr std::size_t kMaxTrackedBatchSize = 32;
// counts[s-1] = occurrences of exactly s (s ≤ kMaxTrackedBatchSize); the
// last slot counts anything larger.
using SlotCounts = std::array<std::uint64_t, kMaxTrackedBatchSize + 1>;

// ---- the metrics schema ----
//
// One row per MetricsSnapshot field: OWNER(field, section, key, kind).
//   field    the MetricsSnapshot member; also its name in the stats frame
//   section  the JSON object and text line it renders under ("" = top level;
//            rows of one section stay together)
//   key      its name inside the section
//   kind     U64 (counter or gauge), U64S (SlotCounts), LATENCY (ms
//            histogram), DISTANCE (unitless histogram) or STR
// The row macro names who counts the value:
//   SVC    ServiceMetrics atomic `field`, bumped by the service (or through
//          PredictionService::count by the loops around it)
//   CACHE  CacheStats member `key`, summed by the embedding cache
//   REUSE  reuse::ReuseStats member `key`, kept by the reuse index
//   RPC    RpcCounters atomic `key`, bumped by rpc::Server
//   INFO   set by PredictionService::metrics() from its configuration
// The snapshot struct, the atomics, snapshot(), to_string(), to_json() and the
// stats frame are all generated from this table: a new metric is one row plus
// its increment site, and needs no wire-protocol bump.
#define PDDL_METRICS(SVC, CACHE, REUSE, RPC, INFO)                           \
  /* admission and outcomes */                                               \
  SVC(submitted, "", submitted, U64)                                         \
  SVC(completed, "", completed, U64) /* responses with status kOk */         \
  SVC(cache_hits, "", cache_hits, U64)     /* served from the shard cache */ \
  SVC(cache_misses, "", cache_misses, U64) /* paid a GHN forward pass */     \
  SVC(rejected_queue_full, "", rejected_queue_full, U64) /* backpressure */  \
  SVC(rejected_untrained, "", rejected_untrained, U64) /* no predictor */    \
  SVC(deadline_expired, "", deadline_expired, U64) /* expired in queue */    \
  SVC(errors, "", errors, U64) /* request threw */                           \
  CACHE(cache_entries, "", cache_entries, U64) /* live, all shards */        \
  CACHE(cache_evictions, "", cache_evictions, U64)                           \
  SVC(e2e, "", e2e, LATENCY)         /* admission → response */              \
  SVC(queue, "", queue, LATENCY)     /* admission → dequeue */               \
  SVC(service, "", service, LATENCY) /* embed + inference only */            \
  /* embed time split by cache outcome, so the miss tail is not hidden */    \
  SVC(embed_hit, "", embed_hit, LATENCY)   /* cache-hit lookup */            \
  SVC(embed_miss, "", embed_miss, LATENCY) /* GHN forward pass */            \
  /* rpc layer (zero when serving in-process) */                             \
  RPC(rpc_connections_accepted, "rpc", connections_accepted, U64)            \
  RPC(rpc_connections_active, "rpc", connections_active, U64)                \
  RPC(rpc_connections_rejected, "rpc", connections_rejected, U64)            \
  RPC(rpc_frames_received, "rpc", frames_received, U64)                      \
  RPC(rpc_frames_sent, "rpc", frames_sent, U64)                              \
  RPC(rpc_frame_errors, "rpc", frame_errors, U64) /* magic/CRC/length */     \
  RPC(rpc_read_timeouts, "rpc", read_timeouts, U64) /* stalled, reaped */    \
  /* feedback loop (zero until a FeedbackController is attached) */          \
  SVC(observations_ingested, "feedback", observations_ingested, U64)         \
  SVC(observations_rejected, "feedback", observations_rejected, U64)         \
  SVC(drift_events, "feedback", drift_events, U64)                           \
  SVC(refits_started, "feedback", refits_started, U64)                       \
  SVC(refits_completed, "feedback", refits_completed, U64)                   \
  SVC(refits_failed, "feedback", refits_failed, U64)                         \
  SVC(engine_swaps, "feedback", engine_swaps, U64)                           \
  /* GHN retrain loop (zero until a GhnTrainerJob swaps a generation) */     \
  SVC(ghn_drift_events, "retrain", ghn_drift_events, U64)                    \
  SVC(retrains_started, "retrain", retrains_started, U64)                    \
  SVC(retrains_completed, "retrain", retrains_completed, U64)                \
  SVC(retrains_failed, "retrain", retrains_failed, U64)                      \
  SVC(ghn_swaps, "retrain", ghn_swaps, U64)                                  \
  /* cache entries dropped for a GHN checksum mismatch */                    \
  CACHE(cache_stale_drops, "retrain", cache_stale_drops, U64)                \
  /* reuse index (zero until ReuseConfig::enabled) */                        \
  REUSE(reuse_hits, "reuse", hits, U64) /* within-ε neighbour served */      \
  REUSE(reuse_rejected, "reuse", rejected, U64) /* nearest beyond ε */       \
  REUSE(reuse_misses, "reuse", misses, U64) /* nothing past prefilter */     \
  REUSE(reuse_probes, "reuse", probes, U64) /* = hits + rejected + misses */ \
  REUSE(reuse_inserts, "reuse", inserts, U64)                                \
  REUSE(reuse_evictions, "reuse", evictions, U64)                            \
  REUSE(reuse_invalidations, "reuse", invalidations, U64) /* GHN swaps */    \
  REUSE(reuse_entries, "reuse", entries, U64)                                \
  SVC(reuse_distance, "reuse", distance, DISTANCE) /* served distances */    \
  /* scratch-arena high-water mark of the embed path */                      \
  SVC(arena_hwm_bytes, "arena", hwm_bytes, U64)                              \
  SVC(arena_chunks, "arena", chunks, U64) /* blocks at that mark */          \
  /* embed-engine provenance (DESIGN.md §15) */                              \
  INFO(engine_precision, "engine", precision, STR) /* "f64" / "f32" */       \
  INFO(kernel_dispatch, "engine", dispatch, STR) /* simd level name */       \
  /* micro-batching */                                                       \
  SVC(batches_dispatched, "batch", dispatched, U64)                          \
  SVC(batch_size_counts, "batch", size_counts, U64S)                         \
  /* batched multi-graph embedding */                                        \
  SVC(embed_batches, "embed_batch", batches, U64) /* forward passes */       \
  SVC(embed_batch_graphs, "embed_batch", graphs, U64) /* unique graphs */    \
  /* duplicate-fingerprint misses that copied a batchmate's embedding */     \
  SVC(embed_coalesced, "embed_batch", coalesced, U64)                        \
  SVC(embed_batch_size_counts, "embed_batch", width_counts, U64S)

// Row kinds; the value is the kind byte of the stats frame.
enum class MetricKind : std::uint8_t {
  U64 = 0,
  U64S = 1,
  LATENCY = 2,
  DISTANCE = 3,
  STR = 4,
};

// One schema row, as the generic renderers and codecs see it.
struct MetricField {
  const char* name;     // field
  const char* section;  // "" = top level
  const char* key;
  MetricKind kind;
};

// Member types per kind: the snapshot value, and the live recorder.
#define PDDL_METRIC_VALUE_U64 std::uint64_t
#define PDDL_METRIC_VALUE_U64S SlotCounts
#define PDDL_METRIC_VALUE_LATENCY HistogramSnapshot
#define PDDL_METRIC_VALUE_DISTANCE HistogramSnapshot
#define PDDL_METRIC_VALUE_STR std::string
#define PDDL_METRIC_LIVE_U64 std::atomic<std::uint64_t>
#define PDDL_METRIC_LIVE_U64S \
  std::array<std::atomic<std::uint64_t>, kMaxTrackedBatchSize + 1>
#define PDDL_METRIC_LIVE_LATENCY LatencyHistogram
#define PDDL_METRIC_LIVE_DISTANCE DistanceHistogram

// Row expanders for PDDL_METRICS.
#define PDDL_METRIC_SKIP(field, section, key, kind)
#define PDDL_METRIC_VALUE_FIELD(field, section, key, kind) \
  PDDL_METRIC_VALUE_##kind field{};
#define PDDL_METRIC_VALUE_KEY(field, section, key, kind) \
  PDDL_METRIC_VALUE_##kind key{};
#define PDDL_METRIC_LIVE_FIELD(field, section, key, kind) \
  PDDL_METRIC_LIVE_##kind field{};
#define PDDL_METRIC_LIVE_KEY(field, section, key, kind) \
  PDDL_METRIC_LIVE_##kind key{};
#define PDDL_METRIC_VISIT(field, section, key, kind) \
  f(MetricField{#field, section, #key, MetricKind::kind}, self.field);
#define PDDL_METRIC_COUNT_ROW(field, section, key, kind) +1

// The embedding cache's counters (the CACHE rows).
struct CacheStats {
  PDDL_METRICS(PDDL_METRIC_SKIP, PDDL_METRIC_VALUE_KEY, PDDL_METRIC_SKIP,
               PDDL_METRIC_SKIP, PDDL_METRIC_SKIP)
};

// rpc::Server's connection and frame counters (the RPC rows).
struct RpcCounters {
  PDDL_METRICS(PDDL_METRIC_SKIP, PDDL_METRIC_SKIP, PDDL_METRIC_SKIP,
               PDDL_METRIC_LIVE_KEY, PDDL_METRIC_SKIP)
};

class ServiceMetrics;

// One snapshot of every row of the schema; returned by
// PredictionService::metrics() and carried by the rpc `stats` op.
struct MetricsSnapshot {
  PDDL_METRICS(PDDL_METRIC_VALUE_FIELD, PDDL_METRIC_VALUE_FIELD,
               PDDL_METRIC_VALUE_FIELD, PDDL_METRIC_VALUE_FIELD,
               PDDL_METRIC_VALUE_FIELD)

  static constexpr std::uint32_t kFieldCount =
      0 PDDL_METRICS(PDDL_METRIC_COUNT_ROW, PDDL_METRIC_COUNT_ROW,
                     PDDL_METRIC_COUNT_ROW, PDDL_METRIC_COUNT_ROW,
                     PDDL_METRIC_COUNT_ROW);

  // Calls f(const MetricField&, value&) for every row, in table order.
  template <class F>
  void for_each_field(F&& f) {
    visit(*this, f);
  }
  template <class F>
  void for_each_field(F&& f) const {
    visit(*this, f);
  }

  // Copies the rows one owner counts from that owner's counters.
  void fill(const ServiceMetrics& src);
  void fill(const CacheStats& src);
  void fill(const reuse::ReuseStats& src);
  void fill(const RpcCounters& src);

  double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) /
                                  static_cast<double>(total);
  }

  // Mean requests per dispatched micro-batch (overflow batches count as
  // kMaxTrackedBatchSize + 1, a floor); 0 when nothing was dispatched.
  double mean_batch_size() const;

  // Mean unique graphs per batched forward pass; 0 when none ran.
  double mean_embed_batch_width() const;

  // Multi-line human-readable dump (the "metrics dump" of the example
  // server and the load generator's per-run report): one line per section
  // and one per histogram, each shown once it holds a nonzero value.
  std::string to_string() const;
  // The to_string() lines of one section ("" = the top-level requests
  // line), printed even when every counter in it is zero.
  std::string section_text(const std::string& section) const;

  // Single-object JSON rendering of every row, sections as nested objects.
  // One implementation shared by the rpc `stats` consumers (predict_client
  // --json) and serve_loadgen's persisted report.
  std::string to_json() const;

 private:
  template <class Self, class F>
  static void visit(Self& self, F& f) {
    PDDL_METRICS(PDDL_METRIC_VISIT, PDDL_METRIC_VISIT, PDDL_METRIC_VISIT,
                 PDDL_METRIC_VISIT, PDDL_METRIC_VISIT)
  }
};

// The service's live counters (the SVC rows).  Members are public atomics:
// the service increments them directly on the hot path.
class ServiceMetrics {
 public:
  PDDL_METRICS(PDDL_METRIC_LIVE_FIELD, PDDL_METRIC_SKIP, PDDL_METRIC_SKIP,
               PDDL_METRIC_SKIP, PDDL_METRIC_SKIP)

  // One relaxed increment per dispatched micro-batch.
  void record_batch_size(std::size_t n);

  // One batched forward pass of `unique_graphs` graphs that additionally
  // satisfied `coalesced` duplicate-fingerprint requests.
  void record_embed_batch(std::size_t unique_graphs, std::size_t coalesced);

  // Scratch-arena high-water mark (CAS-max, called after each fast embed).
  // Bytes and chunks are tracked as one pair from the same arena so the
  // snapshot never mixes measurements from two threads.
  void note_arena(std::size_t capacity_bytes, std::size_t chunks);

  // The SVC rows; the other owners' rows stay zero.
  MetricsSnapshot snapshot() const;
};

}  // namespace pddl::serve
