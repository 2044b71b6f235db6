// The storage skeleton every registry storage is built on.
//
//   PlaceCore    — the per-place header every Place extends: index,
//                  counter block, trace ring and a seeded RNG stream.
//   StorageBase  — CRTP base owning the config, the capacity gate, the
//                  places, the optional private StatsRegistry and the
//                  lifecycle ledger.  Its constructor is the one
//                  validation choke point; it also serves the lifecycle
//                  surface (cancel / reprioritize / caps).
//   claim_or_reap / claim_first
//                — the one decision for an entry a pop path has taken
//                  exclusively (heap pop, slot CAS, deque end, segment
//                  head): claim it, or reap the tombstone
//                  (tombstones_reaped, gate −1); and the one loop that
//                  keeps taking until a live task surfaces.
//   admitted / popped
//                — the shared push and pop epilogues (gate, counter,
//                  trace).
//   at_capacity / displace_worst
//                — the shared overflow verdict.  Each storage still
//                  names its own shed tier (DESIGN.md "Robustness").
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/lifecycle.hpp"
#include "core/storage_traits.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace kps {

/// The fields every Place starts with.  Cache-line aligned so one place's
/// header (and its RNG state) never false-shares with a neighbour's.
struct alignas(kCacheLine) PlaceCore {
  std::size_t index = 0;
  PlaceCounters* counters = nullptr;
  Tracer* trace = nullptr;
  Xoshiro256 rng;
};

namespace detail {

/// The one-branch emit helper every storage hot path uses.
inline void trace_ev(const PlaceCore& p, TraceEv ev, std::uint64_t arg = 0) {
  if (p.trace != nullptr) p.trace->emit(p.index, ev, arg);
}

}  // namespace detail

template <typename Derived, typename TaskT, typename PlaceT,
          bool kReprioritize = true>
class StorageBase {
 public:
  using task_type = TaskT;
  using Place = PlaceT;
  using Entry = detail::LcEntry<TaskT>;

  /// `cancel` is universal; `reprioritize` needs a storage that orders by
  /// priority (see StorageCaps).
  static constexpr StorageCaps kCaps{true, kReprioritize};

  std::size_t places() const { return places_.size(); }
  Place& place(std::size_t i) { return places_[i]; }
  const StorageConfig& config() const { return cfg_; }
  StorageCaps caps() const { return kCaps; }
  bool lifecycle_enabled() const { return ledger_.enabled(); }

  /// O(1) tombstone cancel; the entry is reaped by a later pop.  Counts
  /// tasks_cancelled on the calling place.  The capacity gate is NOT
  /// touched here — the residency is released at reap time.
  bool cancel(Place& p, TaskHandle h) {
    if (!ledger_.cancel(h)) return false;
    p.counters->inc(Counter::tasks_cancelled);
    detail::trace_ev(p, TraceEv::cancel, kCancelPlain);
    return true;
  }

  /// Decrease-key (or any re-key) as tombstone + re-push.  The detach
  /// counts as a cancel and the re-push as a spawn, keeping the ledger
  /// equation exact; the re-push obeys capacity policy like any push
  /// (see ReprioritizeOutcome for the caller's accounting contract).
  /// A storage without kReprioritize refuses: nothing is detached.
  template <typename PrioT>
  ReprioritizeOutcome<TaskT> reprioritize(Place& p, TaskHandle h,
                                          PrioT priority) {
    ReprioritizeOutcome<TaskT> out;
    if constexpr (kReprioritize) {
      std::optional<TaskT> task = ledger_.detach(h);
      if (!task.has_value()) return out;
      out.detached = true;
      p.counters->inc(Counter::tasks_cancelled);
      detail::trace_ev(p, TraceEv::cancel, kCancelRekey);
      task->priority = priority;
      out.requeue = static_cast<Derived*>(this)->try_push(
          p, cfg_.default_k, std::move(*task));
    }
    return out;
  }

 protected:
  /// Validate, wire every place (index, counters, trace, RNG stream
  /// derived from the config seed), then arm the gate and the ledger.
  /// `stats` is optional: standalone uses (micro benches) get a private
  /// registry.
  StorageBase(std::size_t places, const StorageConfig& cfg,
              StatsRegistry* stats)
      : cfg_(cfg), places_(places ? places : 1) {
    const std::string err = cfg_.validate();
    if (!err.empty()) {
      throw std::invalid_argument("StorageConfig: " + err);
    }
    // An undersized tracer would make place i emit on a ring it doesn't
    // own (or out of bounds) — reject at construction, not at emit time.
    if (cfg_.trace != nullptr && cfg_.trace->places() < places_.size()) {
      throw std::invalid_argument(
          "StorageConfig: tracer covers " +
          std::to_string(cfg_.trace->places()) + " places, storage has " +
          std::to_string(places_.size()));
    }
    if (stats == nullptr) {
      owned_stats_ = std::make_unique<StatsRegistry>(places_.size());
      stats = owned_stats_.get();
    }
    for (std::size_t i = 0; i < places_.size(); ++i) {
      PlaceCore& core = places_[i];
      core.index = i;
      core.counters = &stats->place(i);
      core.trace = cfg_.trace;
      core.rng = Xoshiro256(cfg_.seed * 0x9e37 + i + 1);
    }
    gate_.init(cfg_);
    ledger_.init(cfg_.enable_lifecycle, cfg_.queue_delay, cfg_.delay_sample);
  }

  /// The pop-side decision for an entry `by` has taken exclusively.
  /// True: the task is live and now `by`'s to run (or, without
  /// `record_delay`, to hand back as shed — an evicted task must not
  /// enter the queue-delay histogram).  False: the entry was a tombstone;
  /// its residency is released here (tombstones_reaped, gate −1) and the
  /// caller drops it.
  bool claim_or_reap(Entry& e, PlaceCore& by, bool record_delay = true) {
    if (record_delay ? ledger_.claim_popped(e, by.index) : ledger_.claim(e)) {
      return true;
    }
    by.counters->inc(Counter::tombstones_reaped);
    gate_.add(-1);
    return false;
  }

  /// Keep taking entries until one is live: `next(e)` moves the source's
  /// next entry into `e`, or returns false once the source is exhausted
  /// (or the caller's stop condition holds).  Runs under whatever lock
  /// guards the source.
  template <typename Next>
  std::optional<TaskT> claim_first(PlaceCore& by, Next&& next) {
    Entry e;
    while (next(e)) {
      if (claim_or_reap(e, by)) return std::move(e.task);
    }
    return std::nullopt;
  }

  /// Push epilogue: the task entered the storage.
  void admitted(PlaceCore& p) {
    gate_.add(1);
    p.counters->inc(Counter::tasks_spawned);
    detail::trace_ev(p, TraceEv::push);
  }

  /// Pop epilogue.  A claimed task leaves the storage; a failed pop is
  /// "contended" when some tier advertised tasks this place failed to
  /// claim (lost races, tombstone-only sweeps), else "empty".
  std::optional<TaskT> popped(PlaceCore& p, std::optional<TaskT> out,
                              bool contended) {
    if (out) {
      gate_.add(-1);
      p.counters->inc(Counter::tasks_executed);
      detail::trace_ev(p, TraceEv::pop);
    } else {
      p.counters->inc(contended ? Counter::pop_contended
                                : Counter::pop_empty);
    }
    return out;
  }

  /// The at-capacity verdict every try_push opens with.  nullopt: room,
  /// admit as usual.  Otherwise reject the incoming task, or (shed_lowest)
  /// let `displace(task, &out)` trade it against the storage's shed tier
  /// under that tier's lock, shedding the incoming task if it loses.
  template <typename Displace>
  std::optional<PushOutcome<TaskT>> at_capacity(PlaceCore& p, TaskT& task,
                                                Displace&& displace) {
    if (!gate_.at_capacity()) return std::nullopt;
    PushOutcome<TaskT> out;
    const bool shed = gate_.policy() == OverflowPolicy::shed_lowest;
    if (shed && displace(task, &out)) return out;
    out.accepted = false;
    if (!shed) {
      p.counters->inc(Counter::push_rejected);
      detail::trace_ev(p, TraceEv::shed, kShedRejected);
      return out;
    }
    // The incoming task loses (or the tier cannot rank it): counted as
    // spawned-then-shed so the ledger still balances.
    p.counters->inc(Counter::tasks_spawned);
    p.counters->inc(Counter::tasks_shed);
    detail::trace_ev(p, TraceEv::shed, kShedIncoming);
    out.shed = std::move(task);
    return out;
  }

  /// Shed-lowest displacement against a locked heap of entries: if the
  /// incoming task beats the heap's worst resident, evict that resident
  /// and admit the incoming task in its place.  The evicted entry is
  /// claimed like a pop: a live resident comes back through out->shed
  /// (tasks_shed), a tombstone is reaped.  Either way its residency ends
  /// here, so the gate nets to zero.  False when the heap is empty or the
  /// incoming task does not beat the worst; `task` is consumed only on a
  /// true return.  Must be called with the heap's lock held.
  template <typename Heap>
  bool displace_worst(Heap& heap, TaskT& task, PlaceCore& p,
                      PushOutcome<TaskT>* out) {
    if (heap.empty()) return false;
    const std::size_t worst = heap.worst_index();
    if (!(task.priority < heap.at(worst).task.priority)) return false;
    Entry evicted = heap.extract_at(worst);
    heap.push(ledger_.wrap(std::move(task), &out->handle));
    admitted(p);
    if (claim_or_reap(evicted, p, /*record_delay=*/false)) {
      gate_.add(-1);
      p.counters->inc(Counter::tasks_shed);
      detail::trace_ev(p, TraceEv::shed, kShedDisplaced);
      out->shed = std::move(evicted.task);
    }
    return true;
  }

  StorageConfig cfg_;
  detail::CapacityGate gate_;
  std::vector<Place> places_;
  std::unique_ptr<StatsRegistry> owned_stats_;
  detail::LifecycleLedger<TaskT> ledger_;
};

}  // namespace kps
