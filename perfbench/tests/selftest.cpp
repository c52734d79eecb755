// Self-test of the benchmark's own arithmetic: percentiles, the tail
// quantile rule, windowed medians, generator lateness, and the open-loop
// and closed-loop harnesses on a trivial operation.
//
//   cmake --build .bench_build/cmake --target perfbench_selftest
//   .bench_build/cmake/perfbench_selftest        (exit 0 = pass)
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

using namespace perfbench;

void test_percentiles() {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  EXPECT(near(percentile_sorted(xs, 0.5), 50));
  EXPECT(near(percentile_sorted(xs, 0.9), 90));
  EXPECT(near(percentile_sorted(xs, 0.99), 99));
  EXPECT(near(percentile_sorted(xs, 1.0), 100));
  EXPECT(near(percentile_sorted(xs, 0.0), 1));
  EXPECT(near(percentile_sorted({7.0}, 0.99), 7));
  EXPECT(near(percentile_sorted({}, 0.5), 0));
  // q·n with a floating-point excess must not round up a rank.
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  EXPECT(near(percentile_sorted(thousand, 0.99), 990));
  EXPECT(near(percentile_sorted(thousand, 0.999), 999));
}

void test_tail_rule() {
  EXPECT(samples_beyond(1000, 0.99) == 10);
  EXPECT(samples_beyond(999, 0.99) == 9);
  EXPECT(samples_beyond(100, 0.5) == 50);
  EXPECT(near(tail_quantile(1000), 0.99));       // exactly ten beyond p99
  EXPECT(near(tail_quantile(999), 0.95));        // p99 would have nine
  EXPECT(near(tail_quantile(200), 0.95));        // ten beyond p95
  EXPECT(near(tail_quantile(100), 0.9));
  EXPECT(near(tail_quantile(20), 0.5));          // even p75 has only five
  EXPECT(near(tail_quantile(100000), 0.99));     // capped at p99 by default
  EXPECT(near(tail_quantile(100000, 0.999), 0.999));

  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(i % 2 == 0 ? 1.0 : 3.0);
  xs[17] = 50.0;
  const Summary s = summarize(xs);
  EXPECT(s.count == 1000);
  EXPECT(near(s.p50, 1.0));
  EXPECT(near(s.tail_q, 0.99));
  EXPECT(near(s.tail, 3.0));
  EXPECT(near(s.max, 50.0));
  EXPECT(near(s.mean, (500 * 1.0 + 499 * 3.0 + 50.0) / 1000.0));  // xs[17] was a 3
  EXPECT(near(median({3.0, 1.0, 2.0}), 2.0));

  // Best of N: the shortest time, the highest rate.
  EXPECT(near(best_time({5.0, 1.5, 4.0}), 1.5) && near(best_rate({5.0, 1.5, 4.0}), 5.0));
  EXPECT(near(best_time({}), 0.0) && near(best_rate({}), 0.0));

  // Five windows of 1000; a stall that fills most of one window moves that
  // window's median only.
  std::vector<double> phase;
  for (int i = 0; i < 5000; ++i) phase.push_back(1.0 + (i % 100) / 100.0);
  for (int i = 1000; i < 1600; ++i) phase[i] = 40.0;
  const Windowed w = windowed(phase, 1000, 20);
  EXPECT(w.windows == 5 && w.per_window == 1000);
  EXPECT(w.window_p50s.size() == 5 && near(w.window_p50s[1], 40.0));
  EXPECT(near(w.p50, 1.49));  // the median of the five windows' medians
  EXPECT(summarize(phase).p50 > 1.49);  // the whole-phase median moves
  // Defaults: windows of at least 500, at most 40.
  EXPECT(windowed(phase).windows == 10 && windowed(phase).per_window == 500);
  EXPECT(windowed(std::vector<double>(100000, 1.0)).windows == 40);
  const Windowed few = windowed(std::vector<double>(400, 2.0));
  EXPECT(few.windows == 1 && few.per_window == 400 && near(few.p50, 2.0));
  EXPECT(windowed({}).windows == 0);
}

void test_lateness_and_schedule() {
  EXPECT(near(lateness_ms(10.0, 9.5), 0.0));  // early release: no credit
  EXPECT(near(lateness_ms(10.0, 10.25), 0.25));
  EXPECT(near(due_ms(0, 1000.0), 0.0));
  EXPECT(near(due_ms(3, 1000.0), 3.0));
  EXPECT(near(due_ms(5, 250.0), 20.0));
  EXPECT(detail::requests_in(1000.0, 0.5) == 500);
}

void test_harness() {
  // 400 requests/s for 0.25 s through two workers doing no work: every
  // request succeeds, latency is measured from the due time, and the
  // generator's lateness is small.
  const PhaseResult q = run_queued(400.0, 0.25, 2, [](unsigned, std::size_t) { return true; });
  EXPECT(q.attempted == 100);
  EXPECT(q.ok == 100 && q.failed == 0);
  EXPECT(q.latency_ms.size() == 100 && q.latency_at.size() == 100);
  EXPECT(q.late_ms.size() == 100);
  bool nonneg = true;
  for (double l : q.latency_ms) nonneg = nonneg && l >= 0.0;
  EXPECT(nonneg);
  EXPECT(q.lateness().p50 < 5.0);
  // Failures are counted and excluded from latency.
  const PhaseResult f = run_queued(400.0, 0.05, 1, [](unsigned, std::size_t i) { return i % 2 == 0; });
  EXPECT(f.attempted == 20 && f.failed == 10 && f.latency_ms.size() == 10);
  EXPECT(f.latency_at.size() == 20 && f.latency_at[1] < 0.0 && f.latency_at[2] >= 0.0);

  // Closed loop: every call is counted once, and each burst gives a rate.
  const ClosedResult c = run_closed(0.06, 2, 3, [](unsigned, std::size_t i) { return i % 4 != 0; });
  EXPECT(c.chunk_ok_per_s.size() == 3);
  EXPECT(c.attempted > 0 && c.ok < c.attempted);
  EXPECT(c.ok_per_s() > 0.0);
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_rule();
  test_lateness_and_schedule();
  test_harness();
  std::printf("%s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
