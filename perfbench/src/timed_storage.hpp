// TimedStorage — a TaskStorage decorator that times every try_push and
// pop of a registry storage from the outside.
//
// The per-layer split of the benchmark comes from here, so the library
// headers stay untouched: the decorator forwards each call to the wrapped
// AnyStorage and brackets it with two TSC reads.  Because every call of a
// place is bracketed, the gaps between calls can be attributed too:
//
//   * a gap that follows a successful pop is task-body time (the runner's
//     expand, its bookkeeping, everything up to the next storage call —
//     nested pushes are storage time and are carved out of it);
//   * a gap that follows a failed pop is idle time (the runner's pending
//     check and its backoff).
//
// Storage + body + idle therefore telescope to exactly the span from a
// place's first pop to its last call; whatever the run's P x wall holds
// beyond that (thread start and join) is the residual the benchmark
// reports.  A place counts as started at its first pop: pushes that reach
// a place before then are the runner's single-threaded seeding, counted
// (the push total must equal the library's tasks_spawned) but not timed.
//
// Thread contract: one thread per Place at a time, like the wrapped
// storage; each place writes only its own cache-line-aligned tally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/any_storage.hpp"
#include "tsc.hpp"

namespace perfbench {

enum class Op : std::uint8_t { push, pop, pop_empty };

inline const char* op_name(Op op) {
  switch (op) {
    case Op::push: return "push";
    case Op::pop: return "pop";
    case Op::pop_empty: return "pop_empty";
  }
  return "?";
}

/// One sampled storage call: a child span of the solve span.
struct SampledSpan {
  std::uint64_t start = 0;  // TSC
  std::uint64_t ticks = 0;
  Op op = Op::push;
};

/// One storage op of a recorded solve, for the single-threaded heap
/// replay: a push of `priority`, or a successful pop.
struct ReplayOp {
  std::uint64_t at = 0;  // TSC, for merging the places' logs
  double priority = 0;
  bool push = true;
};

struct alignas(64) PlaceTally {
  std::uint64_t seed_pushes = 0;  // untimed, before the place started
  std::uint64_t pushes = 0;       // timed pushes
  std::uint64_t pops = 0;         // successful pops
  std::uint64_t pops_empty = 0;
  std::uint64_t push_ticks = 0;
  std::uint64_t pop_ticks = 0;
  std::uint64_t pop_empty_ticks = 0;
  std::uint64_t body_ticks = 0;
  std::uint64_t idle_ticks = 0;
  std::uint64_t first_in = 0;
  std::uint64_t last_out = 0;
  std::uint64_t calls = 0;
  bool started = false;
  bool in_body = false;
  std::vector<SampledSpan> samples;
  std::vector<ReplayOp> replay;

  std::uint64_t storage_ticks() const {
    return push_ticks + pop_ticks + pop_empty_ticks;
  }
};

// Every kSampleEvery-th call of a place is kept as a span, at most
// kMaxSamples per place per solve.
constexpr std::uint64_t kSampleEvery = 1024;
constexpr std::size_t kMaxSamples = 4096;
static_assert((kSampleEvery & (kSampleEvery - 1)) == 0,
              "the hot path masks instead of dividing");

template <typename TaskT>
class TimedStorage {
 public:
  using Inner = kps::AnyStorage<TaskT>;
  using task_type = TaskT;
  using priority_type = typename Inner::priority_type;
  using Place = typename Inner::Place;

  /// With `record_replay`, every push and successful pop is also logged
  /// for the single-threaded heap replay.
  explicit TimedStorage(Inner& inner, bool record_replay = false)
      : inner_(&inner),
        record_replay_(record_replay),
        tallies_(inner.places()) {
    for (PlaceTally& t : tallies_) t.samples.reserve(kMaxSamples);
  }

  TimedStorage(const TimedStorage&) = delete;
  TimedStorage& operator=(const TimedStorage&) = delete;

  std::size_t places() const { return inner_->places(); }
  Place& place(std::size_t i) { return inner_->place(i); }

  kps::PushOutcome<TaskT> try_push(Place& p, int k, TaskT task) {
    PlaceTally& t = tallies_[p.index];
    const double prio = static_cast<double>(task.priority);
    if (!t.started) {
      ++t.seed_pushes;
      if (record_replay_) t.replay.push_back({tsc_now(), prio, true});
      return inner_->try_push(p, k, std::move(task));
    }
    const std::uint64_t t0 = tsc_now();
    gap(t, t0);
    auto out = inner_->try_push(p, k, std::move(task));
    const std::uint64_t t1 = tsc_now();
    ++t.pushes;
    t.push_ticks += t1 - t0;
    finish(t, Op::push, t0, t1);
    if (record_replay_) t.replay.push_back({t0, prio, true});
    return out;
  }

  std::optional<TaskT> pop(Place& p) {
    PlaceTally& t = tallies_[p.index];
    const std::uint64_t t0 = tsc_now();
    if (t.started) {
      gap(t, t0);
    } else {
      t.started = true;
      t.first_in = t0;
    }
    auto out = inner_->pop(p);
    const std::uint64_t t1 = tsc_now();
    if (out) {
      ++t.pops;
      t.pop_ticks += t1 - t0;
      if (record_replay_) t.replay.push_back({t0, 0.0, false});
    } else {
      ++t.pops_empty;
      t.pop_empty_ticks += t1 - t0;
    }
    t.in_body = out.has_value();
    finish(t, out ? Op::pop : Op::pop_empty, t0, t1);
    return out;
  }

  bool cancel(Place& p, kps::TaskHandle h) { return inner_->cancel(p, h); }

  kps::ReprioritizeOutcome<TaskT> reprioritize(Place& p, kps::TaskHandle h,
                                               priority_type priority) {
    return inner_->reprioritize(p, h, priority);
  }

  kps::StorageCaps caps() const { return inner_->caps(); }
  bool lifecycle_enabled() const { return inner_->lifecycle_enabled(); }

  /// Read after the run's threads joined.
  const std::vector<PlaceTally>& tallies() const { return tallies_; }

 private:
  void gap(PlaceTally& t, std::uint64_t now) {
    (t.in_body ? t.body_ticks : t.idle_ticks) += now - t.last_out;
  }

  void finish(PlaceTally& t, Op op, std::uint64_t t0, std::uint64_t t1) {
    t.last_out = t1;
    if ((++t.calls & (kSampleEvery - 1)) == 0 &&
        t.samples.size() < kMaxSamples) {
      t.samples.push_back({t0, t1 - t0, op});
    }
  }

  Inner* inner_;
  bool record_replay_;
  std::vector<PlaceTally> tallies_;
};

}  // namespace perfbench
