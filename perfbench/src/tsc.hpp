// Time-stamp-counter clock for the traced run.
//
// The per-op spans are read with rdtsc, which costs about half a
// steady_clock read (~19 ns against ~37 ns on a 2.0 GHz Xeon VM); a push
// can take ~100 ns, so the clock is most of the tracing overhead.
// Converting ticks to ns needs the TSC rate, which the run calibrates
// against steady_clock itself (TscCalibration) and records, so no number
// depends on a rate guessed from the CPU model string.  The TSC is
// only a sound cross-core clock on parts with an invariant TSC
// (constant_tsc + nonstop_tsc in /proc/cpuinfo); other targets fall back
// to steady_clock ticks of 1 ns.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define PERFBENCH_HAVE_RDTSC 1
#else
#define PERFBENCH_HAVE_RDTSC 0
#endif

namespace perfbench {

inline std::uint64_t tsc_now() {
#if PERFBENCH_HAVE_RDTSC
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

struct TscRate {
  double ticks_per_ns = 1.0;
  double window_s = 0.0;  // steady_clock span the rate was measured over

  double to_ns(double ticks) const { return ticks / ticks_per_ns; }
};

/// Reads steady_clock and the TSC back to back at construction; rate()
/// divides the ticks since by the steady_clock time since.  A run that
/// measures for tens of seconds gets a rate good to well under 0.1 %.
class TscCalibration {
 public:
  TscCalibration()
      : clock0_(std::chrono::steady_clock::now()), tsc0_(tsc_now()) {}

  TscRate rate() const {
    const auto clock1 = std::chrono::steady_clock::now();
    const std::uint64_t tsc1 = tsc_now();
    const double ns =
        std::chrono::duration<double, std::nano>(clock1 - clock0_).count();
    return {static_cast<double>(tsc1 - tsc0_) / ns, ns * 1e-9};
  }

 private:
  std::chrono::steady_clock::time_point clock0_;
  std::uint64_t tsc0_;
};

}  // namespace perfbench
