// Open-loop load generation for the benchmark's rate phases.
//
// Arrivals are a fixed schedule: request i falls due i/rate seconds after
// the phase starts, whatever the system is doing, so a stall delays every
// later request and shows in their latency.  Latency is timed from the due
// time.  The generator's own lateness (release − due) is recorded per
// request, as a validity check on the schedule.
//
// run_queued: the generator (the calling thread) releases due requests into
// a FIFO; `workers` threads each own one blocking channel (an rpc
// connection) and serve the FIFO.  Requests that find every worker busy
// wait in the FIFO, and that wait counts.  It uses 1 + workers threads.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct PhaseResult {
  double rate = 0.0;
  double seconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;            // rejected, expired, error or wrong
  std::vector<double> latency_ms;      // due → response, successful only
  std::vector<double> latency_at;      // same, by request index; -1 = failed
  std::vector<double> late_ms;         // generator lateness, every request

  Summary latency() const { return summarize(latency_ms); }
  Summary lateness() const { return summarize(late_ms); }
};

namespace detail {
using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - t0).count();
}

inline std::size_t requests_in(double rate, double seconds) {
  std::size_t n = 0;
  while (due_ms(n, rate) < seconds * 1e3) ++n;
  return n;
}

// Sleeps until `t`.  The calling thread's timer slack is cut to 1 µs
// first: the default 50 µs slack is a large share of the gap between
// arrivals at thousands of requests per second, and spinning instead would
// take a core from the system under test.
inline void wait_until(Clock::time_point t) {
  thread_local const bool slack_set = prctl(PR_SET_TIMERSLACK, 1000UL) == 0;
  (void)slack_set;
  std::this_thread::sleep_until(t);
}

// A spin-wait hint: yields the core's shared resources to an SMT sibling.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}
}  // namespace detail

// Keeps every CPU of the process busy with SCHED_IDLE spinners while it
// lives; serve_hot runs its measured phases next to them.  On a virtual
// machine an idle vCPU halts and the host deschedules it; the next wake-up
// on it (a request handed to another thread, a timer) then waits for the
// host's scheduler, which on a busy host made serve_hot's median latency
// 30× longer in some runs while single-threaded set-up ran at its usual
// speed.  SCHED_IDLE threads run only when no other thread of the process
// is runnable, so they keep the vCPUs from halting without being scheduled
// ahead of the program under test.  They are not free: on an SMT sibling
// they share the core's execution units, and a busy core may run at a
// lower clock, so the spin loop pauses on every iteration and the
// single-threaded workloads run without them.
class IdleSpinners {
 public:
  explicit IdleSpinners(unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param p{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &p);
        while (!stop_.load(std::memory_order_relaxed)) detail::cpu_relax();
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// `op(worker, i)` serves request i on the worker's channel and returns
// whether it succeeded (and was correct).  It must be safe to call from
// `workers` threads at once with distinct worker ids.
inline PhaseResult run_queued(
    double rate, double seconds, unsigned workers,
    const std::function<bool(unsigned worker, std::size_t i)>& op) {
  using detail::Clock;
  PhaseResult res;
  res.rate = rate;
  res.seconds = seconds;
  const std::size_t n = detail::requests_in(rate, seconds);
  res.attempted = n;
  std::vector<double> done_ms(n, 0.0);
  std::vector<char> ok(n, 0);
  res.late_ms.assign(n, 0.0);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> fifo;
  bool closed = false;

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (;;) {
        std::size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !fifo.empty(); });
          if (fifo.empty()) return;
          i = fifo.front();
          fifo.pop_front();
        }
        bool good = false;
        try {
          good = op(w, i);
        } catch (...) {
          good = false;
        }
        ok[i] = good ? 1 : 0;
        done_ms[i] = detail::ms_since(t0, Clock::now());
      }
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double due = due_ms(i, rate);
    detail::wait_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(due)));
    res.late_ms[i] = lateness_ms(due, detail::ms_since(t0, Clock::now()));
    {
      std::lock_guard<std::mutex> lock(mu);
      fifo.push_back(i);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (auto& t : pool) t.join();

  res.latency_at.assign(n, -1.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (ok[i]) {
      ++res.ok;
      res.latency_at[i] = done_ms[i] - due_ms(i, rate);
      res.latency_ms.push_back(res.latency_at[i]);
    }
  }
  res.failed = n - res.ok;
  return res;
}

// Closed loop: `workers` threads each call `op(worker, i)` back to back,
// with i drawn from one shared counter, in `chunks` consecutive bursts that
// share `seconds`.  The throughput is the best burst's.
struct ClosedResult {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  double wall_s = 0.0;
  std::vector<double> chunk_ok_per_s;
  double ok_per_s() const { return best_rate(chunk_ok_per_s); }
};

inline ClosedResult run_closed(
    double seconds, unsigned workers, unsigned chunks,
    const std::function<bool(unsigned worker, std::size_t i)>& op) {
  using detail::Clock;
  ClosedResult r;
  std::atomic<std::size_t> next{0};
  for (unsigned c = 0; c < chunks; ++c) {
    std::atomic<std::uint64_t> ok{0};
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point stop =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds / chunks));
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        while (Clock::now() < stop) {
          const std::size_t i = next.fetch_add(1);
          bool good = false;
          try {
            good = op(w, i);
          } catch (...) {
            good = false;
          }
          if (good) ok.fetch_add(1);
        }
      });
    }
    for (auto& t : pool) t.join();
    const double wall = detail::ms_since(t0, Clock::now()) / 1e3;
    r.wall_s += wall;
    r.ok += ok.load();
    r.chunk_ok_per_s.push_back(static_cast<double>(ok.load()) / wall);
  }
  r.attempted = next.load();
  return r;
}

}  // namespace perfbench
