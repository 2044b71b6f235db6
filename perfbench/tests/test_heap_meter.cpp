// The heap meter must read a stretch's peak net heap growth to within
// P x kBatch bytes, from any number of threads, and ignore what happens
// while it is not measuring.
//
// Checks are plain ifs, so they hold in every build type.
#include <malloc.h>

#include <barrier>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#define PERFBENCH_HEAP_METER_DEFINE_OPERATORS
#include "heap_meter.hpp"

namespace {

using perfbench::heap_meter::kBatch;
using perfbench::heap_meter::peak_during;

int g_failures = 0;

constexpr std::int64_t kMiB = 1 << 20;
constexpr std::size_t kThreads = 4;

void expect_within(std::int64_t got, std::int64_t want, std::int64_t slack,
                   const char* what) {
  if (got < want - slack || got > want + slack) {
    ++g_failures;
    std::fprintf(stderr, "FAIL %s: peak %lld, expected %lld +- %lld\n", what,
                 static_cast<long long>(got), static_cast<long long>(want),
                 static_cast<long long>(slack));
  }
}

// What malloc hands out for a request of n bytes.
std::int64_t usable(std::size_t n) {
  void* p = std::malloc(n);
  const auto u = static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
  return u;
}

}  // namespace

int main() {
  // One thread: the peak is the largest live total, not the last one and
  // not the sum of everything allocated.
  const std::int64_t one = peak_during([] {
    auto a = std::make_unique<char[]>(kMiB);
    a.reset();
    auto b = std::make_unique<char[]>(kMiB / 2);
  });
  expect_within(one, usable(kMiB), kBatch, "one thread");

  // Memory held before the stretch is not counted; freeing it during the
  // stretch lowers the total, so the peak is the net growth.
  auto held = std::make_unique<char[]>(4 * kMiB);
  const std::int64_t net = peak_during([&] {
    held.reset();
    auto c = std::make_unique<char[]>(2 * kMiB);
  });
  expect_within(net, 0, kBatch, "net growth");

  // Threads started inside the stretch, many small blocks each, all live
  // at once behind a barrier, then freed.  The thread objects' own
  // bookkeeping is a few hundred bytes.
  constexpr std::int64_t kBlocks = 20000;
  constexpr std::int64_t kBlock = 48;
  const std::int64_t threaded = peak_during([] {
    std::barrier sync(static_cast<std::ptrdiff_t>(kThreads));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        std::vector<std::unique_ptr<char[]>> blocks;
        blocks.reserve(kBlocks);
        for (std::int64_t i = 0; i < kBlocks; ++i) {
          blocks.push_back(std::make_unique<char[]>(kBlock));
        }
        sync.arrive_and_wait();
      });
    }
    for (std::thread& t : threads) t.join();
  });
  const std::int64_t per_thread =
      kBlocks * usable(kBlock) + usable(kBlocks * sizeof(void*));
  expect_within(threaded, static_cast<std::int64_t>(kThreads) * per_thread,
                static_cast<std::int64_t>(kThreads) * kBatch + 4096,
                "threads");

  // Nothing is counted between stretches.
  auto outside = std::make_unique<char[]>(8 * kMiB);
  const std::int64_t quiet = peak_during([] {
    auto d = std::make_unique<char[]>(kMiB / 4);
  });
  expect_within(quiet, usable(kMiB / 4), kBatch, "between stretches");

  if (g_failures != 0) return 1;
  std::puts("test_heap_meter: peaks within P x kBatch");
  return 0;
}
