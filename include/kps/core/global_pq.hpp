// GlobalLockedPq — the strict centralized baseline: one mutex, one heap.
//
// Zero relaxation (rank error is exactly 0 modulo in-flight races at the
// caller), and the scalability wall every figure measures against: all P
// places serialize on a single lock for every operation.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>

#include "core/storage_base.hpp"
#include "core/task_types.hpp"
#include "queues/dary_heap.hpp"
#include "support/failpoint.hpp"
#include "support/mutex.hpp"
#include "support/stats.hpp"
#include "support/thread_safety.hpp"

namespace kps {

template <typename TaskT>
class GlobalLockedPq
    : public StorageBase<GlobalLockedPq<TaskT>, TaskT, PlaceCore> {
 public:
  using Entry = detail::LcEntry<TaskT>;
  using Place = PlaceCore;

  GlobalLockedPq(std::size_t places, StorageConfig cfg,
                 StatsRegistry* stats = nullptr)
      : StorageBase<GlobalLockedPq, TaskT, PlaceCore>(places, cfg, stats) {}

  /// Capacity-aware push.  The single heap IS the shed tier, so the
  /// shed-lowest decision here is exact: the globally worst resident (or
  /// the incoming task, if it is worse) is the one dropped.
  PushOutcome<TaskT> try_push(Place& p, int /*k*/, TaskT task) {
    KPS_FAILPOINT("global.push.lock");
    if (auto full = this->at_capacity(
            p, task, [&](TaskT& t, PushOutcome<TaskT>* out) {
              MutexGuard lk(mutex_);
              return this->displace_worst(heap_, t, p, out);
            })) {
      return std::move(*full);
    }
    PushOutcome<TaskT> out;
    {
      MutexGuard lk(mutex_);
      heap_.push(this->ledger_.wrap(std::move(task), &out.handle));
    }
    this->admitted(p);
    return out;
  }

  std::optional<TaskT> pop(Place& p) {
    KPS_FAILPOINT("global.pop.lock");
    std::optional<TaskT> out;
    {
      MutexGuard lk(mutex_);
      // The callback runs inside claim_first, under mutex_.
      out = this->claim_first(p, [&](Entry& e) KPS_NO_THREAD_SAFETY_ANALYSIS {
        if (heap_.empty()) return false;
        e = heap_.pop();
        return true;
      });
    }
    // A failed pop under the global lock saw the whole structure: it was
    // genuinely empty (never contended — the lock serializes claims).
    return this->popped(p, std::move(out), /*contended=*/false);
  }

 private:
  Mutex mutex_;
  DaryHeap<Entry, detail::LcEntryLess, 4> heap_ KPS_GUARDED_BY(mutex_);
};

}  // namespace kps
