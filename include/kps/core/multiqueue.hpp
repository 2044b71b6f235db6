// MultiQueuePool — the random-two-choices relaxed baseline
// (Rihani/Sanders/Dementiev-style MultiQueue, cf. Postnikova et al. 2021).
//
// c·P spinlocked heaps.  push: lock a uniformly random queue.  pop: probe
// two random queues, compare their cached best priorities without taking
// either lock, then lock only the better one.  Quality degrades gracefully
// (expected rank error O(P)) while contention per queue drops with c.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "core/storage_base.hpp"
#include "core/task_types.hpp"
#include "queues/dary_heap.hpp"
#include "support/backoff.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"
#include "support/thread_safety.hpp"

namespace kps {

template <typename TaskT>
class MultiQueuePool
    : public StorageBase<MultiQueuePool<TaskT>, TaskT, PlaceCore> {
 public:
  using Entry = detail::LcEntry<TaskT>;
  using Place = PlaceCore;

  MultiQueuePool(std::size_t places, StorageConfig cfg,
                 StatsRegistry* stats = nullptr)
      : StorageBase<MultiQueuePool, TaskT, PlaceCore>(places, cfg, stats),
        queues_(std::max<std::size_t>(
            2, this->places_.size() * cfg.multiqueue_factor)) {}

  /// Capacity-aware push.  Shed tier: one uniformly random queue (the
  /// same distribution an admit would have landed in), traded under a
  /// blocking lock — the shed path is off the fast path by construction.
  PushOutcome<TaskT> try_push(Place& p, int /*k*/, TaskT task) {
    if (auto full = this->at_capacity(
            p, task, [&](TaskT& t, PushOutcome<TaskT>* out) {
              Queue& q = random_queue(p);
              SpinGuard guard(q.lock);
              if (!this->displace_worst(q.heap, t, p, out)) return false;
              q.publish_top();
              return true;
            })) {
      return std::move(*full);
    }
    PushOutcome<TaskT> out;
    push_random_queue(p, std::move(task), &out.handle);
    this->admitted(p);
    return out;
  }

  std::optional<TaskT> pop(Place& p) {
    // Random two-choices probes; fall back to a full sweep before giving
    // up so pop only fails when the pool really looked empty.
    bool saw_tasks = false;
    std::optional<TaskT> out;
    for (int attempt = 0; attempt < 4 && !out; ++attempt) {
      // Injected failure = this probe pair lost its race; next attempt.
      if (KPS_FAILPOINT_FAIL("mq.pop.probe")) continue;
      const std::size_t a = p.rng.next_bounded(queues_.size());
      std::size_t b = p.rng.next_bounded(queues_.size());
      if (queues_.size() > 1 && b == a) b = (a + 1) % queues_.size();
      const double ta = queues_[a].top_cache.load(std::memory_order_acquire);
      const double tb = queues_[b].top_cache.load(std::memory_order_acquire);
      if (ta == kEmptyTop && tb == kEmptyTop) continue;
      saw_tasks = true;
      out = try_pop_queue(queues_[ta <= tb ? a : b], p);
    }
    for (std::size_t i = 0; i < queues_.size() && !out; ++i) {
      if (queues_[i].top_cache.load(std::memory_order_acquire) != kEmptyTop) {
        saw_tasks = true;
      }
      out = try_pop_queue(queues_[i], p);
    }
    // "Contended" = some queue advertised tasks but every claim attempt
    // lost (try_lock races, tombstone-only drains); "empty" otherwise.
    return this->popped(p, std::move(out), saw_tasks);
  }

 private:
  static constexpr double kEmptyTop = std::numeric_limits<double>::infinity();
  // try_lock probes before push falls back to a blocking lock.
  static constexpr std::uint64_t kMaxPushProbes = 16;

  struct alignas(kCacheLine) Queue {
    Spinlock lock;
    DaryHeap<Entry, detail::LcEntryLess, 4> heap KPS_GUARDED_BY(lock);
    // Lock-free probe cache; read unlocked by design (two-choices compare),
    // republished under the lock after every structural change.
    std::atomic<double> top_cache{kEmptyTop};

    void publish_top() KPS_REQUIRES(lock) {
      top_cache.store(heap.empty()
                          ? kEmptyTop
                          : static_cast<double>(heap.top().task.priority),
                      std::memory_order_release);
    }
  };

  Queue& random_queue(Place& p) {
    return queues_[p.rng.next_bounded(queues_.size())];
  }

  /// Push into a random queue.  Bounded retry (the PR-6 livelock fix):
  /// kMaxPushProbes random try_lock probes with capped exponential
  /// backoff, then one *blocking* lock, which the spinlock's own
  /// pause/yield ladder makes a guaranteed-progress path.  Either way the
  /// task is admitted once, into whichever queue got locked.
  void push_random_queue(Place& p, TaskT task, TaskHandle* handle)
      KPS_NO_THREAD_SAFETY_ANALYSIS {
    // Which queue's lock is held is a run-time choice the analysis cannot
    // name; every path below locks exactly one queue and unlocks it.
    Backoff backoff;
    Queue* q = nullptr;
    while (q == nullptr && !backoff.exhausted(kMaxPushProbes)) {
      Queue& c = random_queue(p);
      if (!KPS_FAILPOINT_FAIL("mq.push.lock") && c.lock.try_lock()) {
        q = &c;
      } else {
        backoff.spin();
      }
    }
    if (q == nullptr) {
      q = &random_queue(p);
      q->lock.lock();
    }
    q->heap.push(this->ledger_.wrap(std::move(task), handle));
    q->publish_top();
    q->lock.unlock();
  }

  std::optional<TaskT> try_pop_queue(Queue& q, Place& p) {
    if (q.top_cache.load(std::memory_order_acquire) == kEmptyTop) {
      return std::nullopt;
    }
    if (!q.lock.try_lock()) return std::nullopt;
    // The callback runs inside claim_first, under q.lock.
    std::optional<TaskT> out =
        this->claim_first(p, [&](Entry& e) KPS_NO_THREAD_SAFETY_ANALYSIS {
          if (q.heap.empty()) return false;
          e = q.heap.pop();
          return true;
        });
    q.publish_top();
    q.lock.unlock();
    return out;
  }

  std::vector<Queue> queues_;
};

}  // namespace kps
