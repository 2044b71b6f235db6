// Livelock / starvation watchdog: a sampling thread over per-place
// progress heartbeats.
//
// The storages' liveness arguments are per-operation (bounded retries,
// try_lock-only thieves, lock-free claims); what they cannot see is a
// *system-level* stall — every place spinning on pops that always lose,
// an overload regime where shedding churns without completing work, or a
// stalled place wedging everyone behind a lock it holds.  The watchdog
// samples an externally supplied progress vector (in this repo: each
// place's tasks_executed + tasks_spawned from the StatsRegistry, so the
// hot path pays nothing it was not already paying) every `period` and
// flags a place that goes `stall_threshold` consecutive samples without
// progress while the system claims to be busy.
//
// A report is a diagnosis, not a panic: fig9_degradation prints the stall
// tally per sweep point and the acceptance gate is "no stall reports up
// to 4x overload".  Tests assert report().stall_reports == 0 on healthy
// runs and > 0 when a seam is deliberately wedged.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

namespace kps {

struct WatchdogReport {
  std::uint64_t samples = 0;        // sampling rounds completed
  std::uint64_t stall_reports = 0;  // (place, round) pairs flagged stalled
  std::uint64_t max_stall_streak = 0;  // worst consecutive flagged rounds
  std::vector<std::uint64_t> stalls_by_place;
};

class Watchdog {
 public:
  /// `progress`: one monotonically non-decreasing counter per place
  /// (sampled from the watchdog thread — must be safe to call
  /// concurrently with the workers).  `busy`: whether lack of progress is
  /// suspicious right now (false while draining / finished).
  Watchdog(std::function<std::vector<std::uint64_t>()> progress,
           std::function<bool()> busy,
           std::chrono::milliseconds period = std::chrono::milliseconds(50),
           std::uint64_t stall_threshold = 4)
      : progress_(std::move(progress)),
        busy_(std::move(busy)),
        period_(period),
        threshold_(stall_threshold) {}

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() { stop(); }

  void start() {
    if (thread_.joinable()) return;
    stop_.store(false, std::memory_order_release);
    thread_ = std::thread([this] { run(); });
  }

  /// Stop sampling and join.  Idempotent; the report stays readable.
  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }

  const WatchdogReport& report() const { return report_; }

  /// Optional stall sink (PR 8 telemetry): invoked from the watchdog
  /// thread for every (place, round) a stall is flagged, with the current
  /// streak length.  Set before start(); typically wired to
  /// Telemetry::note_stall so the flag becomes a trace event and a
  /// snapshot field instead of only a terminal tally.
  void on_stall(std::function<void(std::size_t, std::uint64_t)> sink) {
    on_stall_ = std::move(sink);
  }

 private:
  void run() {
    std::vector<std::uint64_t> last = progress_();
    std::vector<std::uint64_t> streak(last.size(), 0);
    report_.stalls_by_place.assign(last.size(), 0);
    while (!stop_.load(std::memory_order_acquire)) {
      // Sleep in small slices so stop() never waits a full period.
      const auto deadline = std::chrono::steady_clock::now() + period_;
      while (std::chrono::steady_clock::now() < deadline) {
        if (stop_.load(std::memory_order_acquire)) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::vector<std::uint64_t> now = progress_();
      if (now.size() != last.size()) {
        last = std::move(now);
        continue;
      }
      ++report_.samples;
      const bool busy = busy_();
      for (std::size_t p = 0; p < now.size(); ++p) {
        if (!busy || now[p] != last[p]) {
          streak[p] = 0;
          continue;
        }
        if (++streak[p] >= threshold_) {
          ++report_.stall_reports;
          ++report_.stalls_by_place[p];
          if (streak[p] > report_.max_stall_streak) {
            report_.max_stall_streak = streak[p];
          }
          if (on_stall_) on_stall_(p, streak[p]);
        }
      }
      last = std::move(now);
    }
  }

  std::function<std::vector<std::uint64_t>()> progress_;
  std::function<bool()> busy_;
  std::function<void(std::size_t, std::uint64_t)> on_stall_;
  std::chrono::milliseconds period_;
  std::uint64_t threshold_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  WatchdogReport report_;
};

}  // namespace kps
