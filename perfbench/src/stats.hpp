// Order statistics and load-generation arithmetic of the benchmark.
//
// Every percentile the benchmark reports is computed here from its own
// per-request samples (never from the service's fixed-bucket histograms,
// whose sub-50 µs buckets are interpolation artifacts).  The functions are
// header-only and free of library dependencies so tests/selftest.cpp can
// check them on known samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of an ascending-sorted sample: the smallest value
// with at least q·n samples at or below it.  0 for an empty sample.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps q·n = 990.0000000001 from rounding up to rank 991.
  const double rank = std::ceil(q * n - 1e-9);
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[idx];
}

// Samples strictly beyond the nearest-rank q-percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return r >= n ? 0 : n - r;
}

// The highest tail quantile, capped at `cap`, that has at least ten samples
// beyond it.  Falls back to the median (0.5) when even p75 is unsupported.
inline double tail_quantile(std::size_t n, double cap = 0.99) {
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (q <= cap + 1e-12 && samples_beyond(n, q) >= 10) return q;
  }
  return 0.5;
}

struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_q = 0.5;  // quantile the `tail` field reports
  double tail = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

// Median, the highest supported tail quantile (≤ p99), mean and max.
inline Summary summarize(std::vector<double> xs, double cap = 0.99) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  s.p50 = percentile_sorted(xs, 0.5);
  s.tail_q = tail_quantile(xs.size(), cap);
  s.tail = percentile_sorted(xs, s.tail_q);
  double sum = 0.0;
  for (double x : xs) sum += x;
  s.mean = sum / static_cast<double>(xs.size());
  s.max = xs.back();
  return s;
}

inline double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, 0.5);
}

// Best of N, for phases that repeat the same work N times (passes over the
// same queries, rounds of a sweep, repeated set-ups): the shortest time and
// the highest rate.  Other tenants of a shared machine only ever slow a
// repetition down (on the machine the benchmark was defined on, a
// single-thread compute loop ran up to 30 % slower and an allocation loop
// up to 3× slower from minute to minute), while a slowdown of the program
// itself slows every repetition, the best one too.
inline double best_time(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}
inline double best_rate(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
}

// Median latency of an open-loop phase, per window.  The samples, in
// arrival order, are cut into consecutive equal windows of at least
// `min_per_window` samples (at most `max_windows`); the reported p50 is the
// median over windows of each window's median, so a host stall moves the
// windows it falls in and a slowdown of the program moves every window.
struct Windowed {
  double p50 = 0.0;
  std::size_t windows = 0;
  std::size_t per_window = 0;
  std::vector<double> window_p50s;
};

inline Windowed windowed(const std::vector<double>& in_order,
                         std::size_t min_per_window = 500,
                         std::size_t max_windows = 40) {
  Windowed w;
  const std::size_t n = in_order.size();
  if (n == 0) return w;
  w.windows = std::max<std::size_t>(1, std::min(max_windows, n / min_per_window));
  w.per_window = n / w.windows;
  for (std::size_t k = 0; k < w.windows; ++k) {
    const auto first = in_order.begin() + static_cast<std::ptrdiff_t>(k * w.per_window);
    std::vector<double> win(first, first + static_cast<std::ptrdiff_t>(w.per_window));
    w.window_p50s.push_back(median(std::move(win)));
  }
  w.p50 = median(w.window_p50s);
  return w;
}

// How late an open-loop generator released a request: release − due,
// clamped at zero (a release before its due time is not early credit).
inline double lateness_ms(double due_ms, double released_ms) {
  return std::max(0.0, released_ms - due_ms);
}

// Due time (ms from phase start) of request i at a constant offered rate.
inline double due_ms(std::size_t i, double rate_per_s) {
  return 1e3 * static_cast<double>(i) / rate_per_s;
}

}  // namespace perfbench
