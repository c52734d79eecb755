// In-memory span recorder for the benchmark's traced runs (--trace 1).
//
// Spans are recorded from the benchmark's own code around each call into a
// library layer: name, start, end, the span that caused it, and the request
// it belongs to.  Each thread appends to its own buffer, so recording takes
// no lock; buffers are merged and written once, when the run ends.  With
// tracing off every operation is a single branch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";   // layer.call, e.g. "ghn.embed_batch_into"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // spans of one request share this id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(now_ns()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }

  void record(const SpanRecord& s) { buffer().push_back(s); }

  // Every span recorded so far, in no particular order.  Call after the
  // recording threads have been joined.
  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SpanRecord> all;
    for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
    return all;
  }

  std::int64_t epoch_ns() const { return epoch_; }

 private:
  // The calling thread's buffer, registered on first use.  The process has
  // one Tracer (main's), so a thread needs one buffer pointer.
  std::vector<SpanRecord>& buffer() {
    thread_local std::vector<SpanRecord>* mine = nullptr;
    if (mine != nullptr) return *mine;
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<std::vector<SpanRecord>>());
    buffers_.back()->reserve(1 << 12);
    mine = buffers_.back().get();
    return *mine;
  }

  const bool on_;
  const std::int64_t epoch_;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
};

// RAII span: records [construction, destruction) when the tracer is on.
class Span {
 public:
  Span(Tracer& t, const char* name, std::uint64_t request = 0,
       std::uint64_t parent = 0)
      : tracer_(t) {
    if (!t.on()) return;
    rec_.name = name;
    rec_.id = t.next_id();
    rec_.parent = parent;
    rec_.request = request;
    rec_.start_ns = Tracer::now_ns();
  }
  ~Span() {
    if (!tracer_.on()) return;
    rec_.end_ns = Tracer::now_ns();
    tracer_.record(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return rec_.id; }

 private:
  Tracer& tracer_;
  SpanRecord rec_;
};

}  // namespace perfbench
