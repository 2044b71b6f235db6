// Heap meter — the peak of the live C++ heap while a stretch of code runs.
//
// The benchmark replaces the global operator new and delete with versions
// that, while a measurement is open, add each block's usable size to a
// live total and keep its maximum.  The storages, the runner and the
// solves allocate only through operator new (containers, make_unique,
// over-aligned types), so the peak covers everything a solve holds: the
// storage's heaps, pools, rings and slots, the runner's state and the
// result.  Memory the process already held when the measurement opened
// (the input graph, the oracle) is not counted; a block from before that
// is freed during it lowers the total, so the peak is the net growth.
//
// Define PERFBENCH_HEAP_METER_DEFINE_OPERATORS in exactly one translation
// unit before including this header: the replacements are defined there.
#pragma once

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace perfbench::heap_meter {

// Each thread adds its allocations to a thread-local delta and folds it
// into the shared total once it reaches kBatch bytes either way, so the
// shared cache line is touched once per kBatch bytes, not once per block:
// a storage that allocates a block per task (centralized, ~1 M per solve)
// is not slowed by the meter.  The peak is therefore read to within P x
// kBatch bytes.
constexpr std::int64_t kBatch = 4096;

inline std::atomic<bool> armed{false};
inline std::atomic<std::uint64_t> epoch{0};  // one per measurement
inline std::atomic<std::int64_t> live{0};
inline std::atomic<std::int64_t> peak{0};

struct Local {
  std::uint64_t epoch = 0;
  std::int64_t delta = 0;
};
inline thread_local Local local;

/// Counts block `p` as allocated (sign 1) or freed (sign -1).
inline void note(void* p, std::int64_t sign) {
  // order: relaxed — armed and epoch are set before the measured code
  // starts its threads and cleared after it joins them; thread creation
  // and join order them.
  if (!armed.load(std::memory_order_relaxed)) return;
  const std::uint64_t e = epoch.load(std::memory_order_relaxed);
  if (local.epoch != e) local = {e, 0};  // left over from an earlier one
  local.delta += sign * static_cast<std::int64_t>(malloc_usable_size(p));
  if (local.delta < kBatch && local.delta > -kBatch) return;
  // order: relaxed — live and peak are plain tallies read after the join.
  const std::int64_t now =
      live.fetch_add(local.delta, std::memory_order_relaxed) + local.delta;
  local.delta = 0;
  std::int64_t seen = peak.load(std::memory_order_relaxed);
  while (now > seen &&
         !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
  }
}

/// Runs `fn` and returns the peak net heap growth during it, in bytes.
/// Threads `fn` starts are covered: they are created after the meter is
/// armed and joined before it is read.
template <typename Fn>
std::int64_t peak_during(Fn&& fn) {
  live.store(0);
  peak.store(0);
  epoch.fetch_add(1);
  armed.store(true);
  fn();
  armed.store(false);
  return peak.load();
}

inline void* allocate(std::size_t n) {
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  note(p, 1);
  return p;
}

inline void* allocate_aligned(std::size_t n, std::align_val_t al) {
  const std::size_t a = std::max(static_cast<std::size_t>(al), sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, a, n ? n : 1) != 0) throw std::bad_alloc();
  note(p, 1);
  return p;
}

inline void release(void* p) noexcept {
  if (p != nullptr) note(p, -1);
  std::free(p);
}

}  // namespace perfbench::heap_meter

#ifdef PERFBENCH_HEAP_METER_DEFINE_OPERATORS
// Every form a new- or delete-expression calls is replaced, so none falls
// through to another allocator's version (a sanitizer runtime defines them
// all).
void* operator new(std::size_t n) {
  return perfbench::heap_meter::allocate(n);
}
void* operator new[](std::size_t n) {
  return perfbench::heap_meter::allocate(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::heap_meter::allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::heap_meter::allocate_aligned(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::heap_meter::allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return operator new(n, std::nothrow);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return perfbench::heap_meter::allocate_aligned(n, al);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return operator new(n, al, std::nothrow);
}
void operator delete(void* p) noexcept { perfbench::heap_meter::release(p); }
void operator delete[](void* p) noexcept {
  perfbench::heap_meter::release(p);
}
void operator delete(void* p, std::size_t) noexcept {
  perfbench::heap_meter::release(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  perfbench::heap_meter::release(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  perfbench::heap_meter::release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  perfbench::heap_meter::release(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::heap_meter::release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::heap_meter::release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::heap_meter::release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::heap_meter::release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  perfbench::heap_meter::release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  perfbench::heap_meter::release(p);
}
#endif
