// WorkStealingPool — work-stealing with a pluggable local container
// (paper §3.1): each place owns one container behind its own spinlock,
// runs tasks from the container's owner end, and an empty place steals
// from a random victim.  Owner operations are one uncontended CAS plus
// plain container work; thieves only ever try_lock, so they cannot
// convoy an owner.  Two containers are registered:
//
//   ws_priority (WsPriorityPool) — a d-ary heap.  The owner runs its own
//       best task; a thief takes the suffix half of the victim's heap
//       (extract_half, Hendler & Shavit) and runs the best live task of
//       that loot, or — with steal_half off — the victim's best task.
//       Priorities only order *local* execution, so wasted work grows
//       with P (the Figure 4 effect this baseline exists to show).
//   ws_deque (WsDequePool) — a priority-oblivious deque, the ablation A5
//       control: LIFO owner end, FIFO steal end.  A thief runs the
//       oldest live task and, with steal_half, takes half of the rest.
//       It cannot rank a resident, so shed_lowest sheds the incoming
//       task and reprioritize is refused by capability (caps().
//       reprioritize is false): re-keying a task cannot move it in a
//       deque that ignores priorities.
//
// Lifecycle: entries migrate between places with their control blocks,
// so a handle stays redeemable across steals; tombstones are reaped
// wherever they surface (owner pop, steal, re-pop of the loot).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "core/storage_base.hpp"
#include "core/task_types.hpp"
#include "queues/dary_heap.hpp"
#include "support/failpoint.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"
#include "support/thread_safety.hpp"

namespace kps {

namespace detail {

/// ws_priority's local container.  Not synchronized: the owning place's
/// lock guards it.
template <typename TaskT>
struct WsHeap {
  using Entry = LcEntry<TaskT>;
  // Can rank a worst resident: shed_lowest displaces it, and
  // reprioritize can move a task.
  static constexpr bool kRanked = true;
  // A steal-half thief runs the best task of its loot, not the victim's.
  static constexpr bool kRunsFromLoot = true;

  DaryHeap<Entry, LcEntryLess, 4> q;

  static bool steal_fault() { return KPS_FAILPOINT_FAIL("wsprio.steal"); }
  bool empty() const { return q.empty(); }
  std::size_t size() const { return q.size(); }
  void push(Entry e) { q.push(std::move(e)); }
  bool take_own(Entry& e) {
    if (q.empty()) return false;
    e = q.pop();
    return true;
  }
  bool take_steal(Entry& e) { return take_own(e); }
  void split_half(std::vector<Entry>& loot) { q.extract_half(loot); }
};

/// ws_deque's local container: owner at the back, thieves at the front.
template <typename TaskT>
struct WsDeque {
  using Entry = LcEntry<TaskT>;
  static constexpr bool kRanked = false;
  static constexpr bool kRunsFromLoot = false;

  std::deque<Entry> q;

  static bool steal_fault() { return KPS_FAILPOINT_FAIL("wsdeque.steal"); }
  bool empty() const { return q.empty(); }
  std::size_t size() const { return q.size(); }
  void push(Entry e) { q.push_back(std::move(e)); }
  bool take_own(Entry& e) {
    if (q.empty()) return false;
    e = std::move(q.back());
    q.pop_back();
    return true;
  }
  bool take_steal(Entry& e) {
    if (q.empty()) return false;
    e = std::move(q.front());
    q.pop_front();
    return true;
  }
  void split_half(std::vector<Entry>& loot) {
    for (std::size_t extra = q.size() / 2; extra > 0; --extra) {
      loot.push_back(std::move(q.front()));
      q.pop_front();
    }
  }
};

template <typename Local>
struct alignas(kCacheLine) WsPlace : PlaceCore {
  Spinlock lock;
  Local local KPS_GUARDED_BY(lock);
  // Owner-only scratch: only this place's thread (as thief) fills and
  // drains it, never concurrently — deliberately unguarded.
  std::vector<typename Local::Entry> loot;  // reused steal buffer
};

}  // namespace detail

template <typename TaskT, template <typename> class LocalT>
class WorkStealingPool
    : public StorageBase<WorkStealingPool<TaskT, LocalT>, TaskT,
                         detail::WsPlace<LocalT<TaskT>>,
                         LocalT<TaskT>::kRanked> {
  using Local = LocalT<TaskT>;

 public:
  using Entry = detail::LcEntry<TaskT>;
  using Place = detail::WsPlace<Local>;

  WorkStealingPool(std::size_t places, StorageConfig cfg,
                   StatsRegistry* stats = nullptr)
      : StorageBase<WorkStealingPool, TaskT, Place, Local::kRanked>(
            places, cfg, stats) {}

  /// Capacity-aware push.  Shed tier: the pushing place's own container —
  /// the only one it can inspect without cross-place locking, and where
  /// the task would have lived anyway.  A deque cannot rank what it does
  /// not order, so there shed_lowest sheds the incoming task.
  PushOutcome<TaskT> try_push(Place& p, int /*k*/, TaskT task) {
    if (auto full = this->at_capacity(
            p, task, [&](TaskT& t, PushOutcome<TaskT>* out) {
              if constexpr (Local::kRanked) {
                SpinGuard guard(p.lock);
                return this->displace_worst(p.local.q, t, p, out);
              } else {
                return false;
              }
            })) {
      return std::move(*full);
    }
    PushOutcome<TaskT> out;
    p.lock.lock();
    p.local.push(this->ledger_.wrap(std::move(task), &out.handle));
    p.lock.unlock();
    this->admitted(p);
    return out;
  }

  std::optional<TaskT> pop(Place& p) {
    p.lock.lock();
    std::optional<TaskT> out = take_own(p);
    p.lock.unlock();
    bool saw_tasks = false;
    // Steal round: probe every other place once, in random order.
    const std::size_t n = this->places_.size();
    if (!out && n > 1) {
      const std::size_t start = p.rng.next_bounded(n);
      for (std::size_t i = 0; i < n && !out; ++i) {
        Place& victim = this->places_[(start + i) % n];
        if (victim.index == p.index) continue;
        p.counters->inc(Counter::steal_attempts);
        out = steal_from(p, victim, saw_tasks);
      }
    }
    return this->popped(p, std::move(out), saw_tasks);
  }

 private:
  std::optional<TaskT> take_own(Place& p) KPS_REQUIRES(p.lock) {
    // The callback runs inside claim_first, under p.lock.
    return this->claim_first(p, [&](Entry& e) KPS_NO_THREAD_SAFETY_ANALYSIS {
      return p.local.take_own(e);
    });
  }

  std::optional<TaskT> steal_from(Place& p, Place& victim, bool& saw_tasks) {
    // Injected failure = victim looked locked; the caller's steal round
    // simply moves on to the next victim.
    if (Local::steal_fault() || !victim.lock.try_lock()) return std::nullopt;
    if (victim.local.empty()) {
      victim.lock.unlock();
      return std::nullopt;
    }
    saw_tasks = true;
    const bool half = this->cfg_.steal_half;
    // Heap steal-half runs the best task of its loot; every other steal
    // runs the live task the victim's steal end yields first.
    const bool from_loot =
        Local::kRunsFromLoot && half && victim.local.size() > 1;
    std::optional<TaskT> out;
    if (!from_loot) {
      // The callback runs inside claim_first, under victim.lock.
      out = this->claim_first(p, [&](Entry& e) KPS_NO_THREAD_SAFETY_ANALYSIS {
        return victim.local.take_steal(e);
      });
      if (!out) {
        victim.lock.unlock();
        return out;
      }
    }
    p.loot.clear();
    if (half) victim.local.split_half(p.loot);
    victim.lock.unlock();
    // Control blocks migrate with the loot, so handles stay redeemable.
    const std::size_t stolen = p.loot.size() + (from_loot ? 0 : 1);
    if (!p.loot.empty()) {
      p.lock.lock();
      for (Entry& e : p.loot) p.local.push(std::move(e));
      if (from_loot) out = take_own(p);
      p.lock.unlock();
    }
    // Loot of tombstones only: reaped, nothing stolen — counted like a
    // single steal that surfaces no live task.
    if (!out) return out;
    p.counters->inc(Counter::stolen_items, stolen);
    // Thief records on its OWN ring (SPSC); victim id rides in arg.
    detail::trace_ev(p, TraceEv::steal,
                     static_cast<std::uint32_t>(victim.index));
    return out;
  }
};

template <typename TaskT>
using WsPriorityPool = WorkStealingPool<TaskT, detail::WsHeap>;
template <typename TaskT>
using WsDequePool = WorkStealingPool<TaskT, detail::WsDeque>;

}  // namespace kps
