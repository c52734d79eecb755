#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <type_traits>

#include "reuse/reuse_index.hpp"

namespace pddl::serve {

namespace {
// Count, mean and quantiles from bucket counts: each quantile walks to the
// bucket holding the q-th sample and interpolates linearly between its
// bounds.  The overflow bucket (upper bound +inf) reports the observed max,
// and interpolation is clamped so pXX ≤ max always holds in dumps.
template <std::size_t N>
HistogramSnapshot summarize(const std::array<std::uint64_t, N>& counts,
                            double sum, double max,
                            double (*lower)(std::size_t),
                            double (*upper)(std::size_t)) {
  HistogramSnapshot s;
  for (std::uint64_t c : counts) s.count += c;
  s.max = max;
  if (s.count == 0) return s;
  s.mean = sum / static_cast<double>(s.count);
  auto quantile = [&](double q) {
    const double target = q * static_cast<double>(s.count);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < N; ++i) {
      const std::uint64_t next = cum + counts[i];
      if (static_cast<double>(next) >= target && counts[i] > 0) {
        const double hi = upper(i);
        if (std::isinf(hi)) return max;
        const double lo = lower(i);
        const double frac = (target - static_cast<double>(cum)) /
                            static_cast<double>(counts[i]);
        return std::min(lo + std::clamp(frac, 0.0, 1.0) * (hi - lo), max);
      }
      cum = next;
    }
    return max;
  };
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  return s;
}

// Lock-free max of a fixed-point sample.
void store_max(std::atomic<std::uint64_t>& max, std::uint64_t v) {
  std::uint64_t prev = max.load(std::memory_order_relaxed);
  while (prev < v &&
         !max.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

template <std::size_t N>
std::array<std::uint64_t, N> load_all(
    const std::array<std::atomic<std::uint64_t>, N>& a) {
  std::array<std::uint64_t, N> out{};
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = a[i].load(std::memory_order_relaxed);
  }
  return out;
}

// The value a live member contributes to a snapshot.
std::uint64_t value_of(std::uint64_t v) { return v; }
std::uint64_t value_of(const std::atomic<std::uint64_t>& a) {
  return a.load(std::memory_order_relaxed);
}
SlotCounts value_of(
    const std::array<std::atomic<std::uint64_t>, kMaxTrackedBatchSize + 1>&
        a) {
  return load_all(a);
}
HistogramSnapshot value_of(const LatencyHistogram& h) { return h.snapshot(); }
HistogramSnapshot value_of(const DistanceHistogram& h) { return h.snapshot(); }
}  // namespace

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
  store_max(max_ns_, ns);
}

std::array<std::uint64_t, LatencyHistogram::kBuckets>
LatencyHistogram::bucket_counts() const {
  return load_all(counts_);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  return summarize(
      bucket_counts(),
      static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e6,
      static_cast<double>(max_ns_.load(std::memory_order_relaxed)) / 1e6,
      &bucket_lower_ms, &bucket_upper_ms);
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

double DistanceHistogram::bucket_lower(std::size_t i) {
  return i == 0 ? 0.0 : bucket_bounds()[i - 1];
}

double DistanceHistogram::bucket_upper(std::size_t i) {
  return i >= kBuckets - 1 ? std::numeric_limits<double>::infinity()
                           : bucket_bounds()[i];
}

void DistanceHistogram::record(double d) {
  if (!(d >= 0.0)) d = 0.0;  // clamp NaN / negative rounding noise
  const auto& bounds = bucket_bounds();
  const std::size_t idx =
      std::upper_bound(bounds.begin(), bounds.end(), d) - bounds.begin();
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  const auto fixed = static_cast<std::uint64_t>(d * 1e9);
  sum_1e9_.fetch_add(fixed, std::memory_order_relaxed);
  store_max(max_1e9_, fixed);
}

std::array<std::uint64_t, DistanceHistogram::kBuckets>
DistanceHistogram::bucket_counts() const {
  return load_all(counts_);
}

DistanceHistogram::Snapshot DistanceHistogram::snapshot() const {
  return summarize(
      bucket_counts(),
      static_cast<double>(sum_1e9_.load(std::memory_order_relaxed)) / 1e9,
      static_cast<double>(max_1e9_.load(std::memory_order_relaxed)) / 1e9,
      &bucket_lower, &bucket_upper);
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
  s.fill(*this);
  return s;
}

#define PDDL_METRIC_COPY_FIELD(field, section, key, kind) \
  field = value_of(src.field);
#define PDDL_METRIC_COPY_KEY(field, section, key, kind) \
  field = value_of(src.key);

void MetricsSnapshot::fill(const ServiceMetrics& src) {
  PDDL_METRICS(PDDL_METRIC_COPY_FIELD, PDDL_METRIC_SKIP, PDDL_METRIC_SKIP,
               PDDL_METRIC_SKIP, PDDL_METRIC_SKIP)
}

void MetricsSnapshot::fill(const CacheStats& src) {
  PDDL_METRICS(PDDL_METRIC_SKIP, PDDL_METRIC_COPY_KEY, PDDL_METRIC_SKIP,
               PDDL_METRIC_SKIP, PDDL_METRIC_SKIP)
}

void MetricsSnapshot::fill(const reuse::ReuseStats& src) {
  PDDL_METRICS(PDDL_METRIC_SKIP, PDDL_METRIC_SKIP, PDDL_METRIC_COPY_KEY,
               PDDL_METRIC_SKIP, PDDL_METRIC_SKIP)
}

void MetricsSnapshot::fill(const RpcCounters& src) {
  PDDL_METRICS(PDDL_METRIC_SKIP, PDDL_METRIC_SKIP, PDDL_METRIC_SKIP,
               PDDL_METRIC_COPY_KEY, PDDL_METRIC_SKIP)
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

namespace {
std::string strprintf(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

std::string u64_text(std::uint64_t v) {
  return strprintf("%llu", static_cast<unsigned long long>(v));
}

// Histograms render in their unit: ms for LATENCY rows, unitless for
// DISTANCE rows (which need more digits for near-zero distances).
std::string histogram_text(const HistogramSnapshot& h, MetricKind kind) {
  const bool ms = kind == MetricKind::LATENCY;
  const char* unit = ms ? "ms" : "";
  const int digits = ms ? 3 : 4;
  return strprintf("n=%llu mean=%.*f%s p50=%.*f%s p95=%.*f%s p99=%.*f%s "
                "max=%.*f%s",
                static_cast<unsigned long long>(h.count), digits, h.mean,
                unit, digits, h.p50, unit, digits, h.p95, unit, digits, h.p99,
                unit, digits, h.max, unit);
}

std::string histogram_json(const HistogramSnapshot& h, MetricKind kind) {
  const bool ms = kind == MetricKind::LATENCY;
  const char* unit = ms ? "_ms" : "";
  const int digits = ms ? 6 : 9;
  return strprintf("{\"count\":%llu,\"mean%s\":%.*f,\"p50%s\":%.*f,"
                "\"p95%s\":%.*f,\"p99%s\":%.*f,\"max%s\":%.*f}",
                static_cast<unsigned long long>(h.count), unit, digits, h.mean,
                unit, digits, h.p50, unit, digits, h.p95, unit, digits, h.p99,
                unit, digits, h.max);
}

// Slot counts in text drop their trailing zeros; JSON keeps every slot.
std::string slots_text(const SlotCounts& c, bool trim) {
  std::size_t n = c.size();
  while (trim && n > 0 && c[n - 1] == 0) --n;
  std::string out = "[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) out += ',';
    out += u64_text(c[i]);
  }
  return out + "]";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

template <class T>
bool is_zero(const T& v) {
  if constexpr (std::is_same_v<T, SlotCounts>) {
    return std::all_of(v.begin(), v.end(),
                       [](std::uint64_t c) { return c == 0; });
  } else if constexpr (std::is_same_v<T, HistogramSnapshot>) {
    return v.count == 0;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v.empty();
  } else {
    return v == 0;
  }
}

// One value as dump text (json = false) or as JSON.
template <class T>
std::string render(const T& v, MetricKind kind, bool json) {
  if constexpr (std::is_same_v<T, HistogramSnapshot>) {
    return json ? histogram_json(v, kind) : histogram_text(v, kind);
  } else if constexpr (std::is_same_v<T, SlotCounts>) {
    return slots_text(v, /*trim=*/!json);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return json ? json_string(v) : v;
  } else {
    return u64_text(v);
  }
}

std::string label(const std::string& name) {
  return strprintf("  %-9s: ", name.c_str());
}

// The dump lines of every section (only == nullptr), or of the one section
// `*only`.  A section's scalar rows render as one line, shown in the full
// dump once any of them is nonzero and always when asked for by name; each
// histogram follows on its own line once it holds a sample.
std::string dump_lines(const MetricsSnapshot& m, const std::string* only) {
  std::string out;
  std::string section;
  std::string line;        // the current section's scalar rows
  std::string histograms;  // its histogram rows, one line each
  bool nonzero = false;
  auto flush = [&] {
    if (nonzero || (only != nullptr && !line.empty())) {
      out += label(section.empty() ? "requests" : section) + line + "\n";
    }
    out += histograms;
    line.clear();
    histograms.clear();
    nonzero = false;
  };
  m.for_each_field([&](const MetricField& f, const auto& v) {
    if (only != nullptr && *only != f.section) return;
    if (section != f.section) {
      flush();
      section = f.section;
    }
    const std::string text = render(v, f.kind, /*json=*/false);
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                 HistogramSnapshot>) {
      if (v.count == 0) return;
      histograms +=
          label(section.empty() ? f.key : section + "." + f.key) + text + "\n";
    } else {
      if (!line.empty()) line += ' ';
      line += std::string(f.key) + '=' + text;
      nonzero = nonzero || !is_zero(v);
    }
  });
  flush();
  return out;
}
}  // namespace

std::string MetricsSnapshot::to_string() const {
  return "serve metrics\n" + dump_lines(*this, nullptr);
}

std::string MetricsSnapshot::section_text(const std::string& section) const {
  return dump_lines(*this, &section);
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{";
  std::string section;
  bool top_first = true;
  bool inner_first = true;
  auto key = [&out](bool& first, const std::string& k) {
    if (!first) out += ',';
    first = false;
    out += '"' + k + "\":";
  };
  for_each_field([&](const MetricField& f, const auto& v) {
    if (section != f.section) {
      if (!section.empty()) out += '}';
      section = f.section;
      if (!section.empty()) {
        key(top_first, section);
        out += '{';
        inner_first = true;
      }
    }
    key(section.empty() ? top_first : inner_first, f.key);
    out += render(v, f.kind, /*json=*/true);
  });
  if (!section.empty()) out += '}';
  return out + "}";
}

}  // namespace pddl::serve
