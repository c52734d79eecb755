// Allocation-counting hook shared by the tests that assert a code region
// performs zero heap allocations (ghn_infer_test, ghn_grad_test).
//
// Include from exactly one translation unit per test binary: it replaces
// the global operator new/delete.  Counting is per-thread and off by
// default, so gtest machinery and other threads are unaffected:
//
//   g_count_allocs.store(true);  t_alloc_count = 0;
//   ... region under test ...
//   g_count_allocs.store(false); EXPECT_EQ(t_alloc_count, 0u);
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_count_allocs{false};
thread_local std::size_t t_alloc_count = 0;
}  // namespace

// The replaced operator new below is malloc-backed, so free() in the
// replaced operator delete is the matching deallocator; GCC cannot see the
// pairing at inlined call sites and warns spuriously.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t sz) {
  if (g_count_allocs.load(std::memory_order_relaxed)) ++t_alloc_count;
  if (void* p = std::malloc(sz == 0 ? 1 : sz)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
