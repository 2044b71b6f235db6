// CentralizedKpq — the paper's centralized k-priority structure (§4.1.1):
// a lock-free global slot array (the k-relaxation window) backed by a
// strict overflow heap.
//
//   push — claim a free window slot with one CAS, write the task into the
//          slot itself and publish it.  Randomized placement spreads
//          concurrent pushers across the window (ablation A3 measures the
//          linear-scan alternative); if the window is full the task
//          overflows into the locked heap.
//   pop  — scan the window for the best published slot, compare against
//          the overflow heap's cached minimum, and claim the winner with
//          one CAS.  The claimer copies the task out and frees the slot.
//
// Slot protocol: each slot holds its task inline, next to one state word
// {version, EMPTY/WRITING/FULL/CLAIMED} and an atomic priority hint.
//
//   push   EMPTY(v) -CAS-> WRITING(v), write entry + pri, store FULL(v)
//   claim  FULL(v)  -CAS-> CLAIMED(v), copy entry out,  store EMPTY(v+1)
//
// Only the WRITING pusher and the CLAIMED claimer touch the entry, and the
// acquire CAS / release store pairs order one owner's accesses before the
// next's.  Scanners read only the state word and `pri`, so no task memory
// is ever freed under a reader and nothing needs reclaiming.  A claim
// bumps the version as it empties the slot, so a candidate read before
// the slot was recycled fails its claim CAS (ABA).  A pusher or claimer
// stalled mid-protocol parks only its own slot: pushers take other slots
// or the overflow heap, and scans skip it.
//
// Occupancy summary: one 64-bit word per 64 slots mirrors which slots are
// occupied, so a push probes only clear-bit slots and a scan loads only
// *occupied* slots, never all k — the fix for fig5's large-k cliff.  The
// bitmap is a hint maintained so that, at quiescence, bit set ⊇ slot FULL:
//
//   * a pusher sets the bit only AFTER its FULL store, so a set bit
//     reliably leads scanners to a (possibly just-claimed) task;
//   * a claimer clears the bit after emptying the slot, then re-reads the
//     slot and re-sets the bit if a racing pusher refilled it in between
//     (the clear/set race would otherwise hide a live task forever);
//   * a scanner that finds a set bit over a slot that is not FULL applies
//     the same healed clear lazily, so a heal re-set that itself lost a
//     race with a second claimer cannot strand window capacity behind a
//     stale bit;
//   * transient windows (bit not yet set, or cleared around a claim) only
//     make a scan miss a task momentarily — pop is allowed to be weakly
//     complete, and the bit becomes visible on the next attempt.
//
// Hierarchical min-index: pop descends a per-word cached-min tree
// (support/min_index.hpp) straight to the apparently-best word and scans
// only that word's occupied slots — O(log k + 64) loads instead of
// O(occupied) (A15).  The index is a hint with the same
// conservative-staleness contract as the bitmap: pushes CAS-min the new
// priority up the tree, claims recompute the word minimum from the slots
// and heal the path, and a descent that lands on a stale (empty or
// claimed-out) word heals it and retries; after kMaxDescents misses pop
// falls back to the full occupancy scan, so completeness is exactly the
// bitmap's.  Claiming a word-local best (not the global window best) is
// within the relaxation contract — only window tasks are bypassed.
// Counters: tree_descents, min_heals.
//
// Lifecycle (PR 7): window slots and the overflow heap hold LcEntry
// values; a cancelled entry stays published as a tombstone until a pop's
// claim CAS surfaces it, at which point it is reaped through exactly the
// claim path a live task takes (a tombstone claim resets the attempt
// budget — a reap is progress, not a failed pop).  A window-full push
// moves the ALREADY-WRAPPED entry into the overflow heap, so the handle
// issued at wrap time stays redeemable across the tier change.
//
// Relaxation guarantee: only window tasks can be bypassed, so a pop's rank
// error is bounded by k regardless of P (ablation A1 measures this).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/storage_base.hpp"
#include "core/task_types.hpp"
#include "queues/dary_heap.hpp"
#include "support/failpoint.hpp"
#include "support/min_index.hpp"
#include "support/rng.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"
#include "support/thread_safety.hpp"

// Test seam: invoked between pop's overflow_min_ snapshot and the lock
// acquisition, so the regression test for the stale-snapshot race can
// force both poppers to hold their snapshots before either locks
// (test_central_bitmap defines it to a barrier; default is free).
#ifndef KPS_POP_OVERFLOW_RACE_HOOK
#define KPS_POP_OVERFLOW_RACE_HOOK() ((void)0)
#endif

namespace kps {

namespace detail {

// Slot state word layout: (version << 2) | phase.
inline constexpr std::uint64_t kSlotEmpty = 0;
inline constexpr std::uint64_t kSlotWriting = 1;  // pusher owns the entry
inline constexpr std::uint64_t kSlotFull = 2;     // published, claimable
inline constexpr std::uint64_t kSlotClaimed = 3;  // claimer owns the entry
inline constexpr std::uint64_t kSlotPhase = 3;

template <typename TaskT>
struct WindowSlot {
  std::atomic<std::uint64_t> state{kSlotEmpty};
  // Priority hint for scanners: written before the FULL store, so a
  // scanner that read FULL(v) sees v's priority or a later residency's.
  std::atomic<double> pri{0.0};
  LcEntry<TaskT> entry{};  // touched only in WRITING / CLAIMED
};

struct alignas(kCacheLine) CentralPlace : PlaceCore {
  std::uint64_t rank_probe_tick = 0;  // pops since the last rank probe
};

}  // namespace detail

template <typename TaskT>
class CentralizedKpq
    : public StorageBase<CentralizedKpq<TaskT>, TaskT, detail::CentralPlace> {
 public:
  using Entry = detail::LcEntry<TaskT>;
  using Place = detail::CentralPlace;

  CentralizedKpq(std::size_t places, StorageConfig cfg,
                 StatsRegistry* stats = nullptr)
      : StorageBase<CentralizedKpq, TaskT, Place>(places, cfg, stats),
        window_(static_cast<std::size_t>(cfg.k_max)),
        summary_((window_.size() + 63) / 64),
        min_index_(summary_.size()) {
    // order: relaxed — constructor runs single-threaded; publication of
    // the whole object happens-before any concurrent use.
    for (auto& w : summary_) w.store(0, std::memory_order_relaxed);
  }

  /// Capacity-aware push.  Shed tier: the strict overflow heap — window
  /// tasks (the hot ≤ k_max set) are never shed, so at capacity the shed
  /// threshold is the overflow heap's worst resident (or the incoming
  /// task itself while the overflow tier is empty).
  PushOutcome<TaskT> try_push(Place& p, int k, TaskT task) {
    if (auto full = this->at_capacity(
            p, task, [&](TaskT& t, PushOutcome<TaskT>* out) {
              // Trade against the overflow tier under its lock, so the
              // eviction and the replacement insert are one atomic step.
              SpinGuard guard(overflow_lock_);
              if (!this->displace_worst(overflow_, t, p, out)) return false;
              publish_overflow_min();
              return true;
            })) {
      return std::move(*full);
    }
    // Every path below admits the task (window slot or overflow heap).
    this->admitted(p);
    PushOutcome<TaskT> out;
    const std::size_t window = window_size(k);
    Entry e = this->ledger_.wrap(std::move(task), &out.handle);
    const std::size_t start =
        this->cfg_.randomize_placement ? p.rng.next_bounded(window) : 0;
    if (push_summary_guided(p, window, start, e)) return out;
    // Window full: the task leaves the relaxed tier for the strict heap.
    // The wrapped entry moves tiers whole, keeping its handle redeemable.
    KPS_FAILPOINT("central.push.overflow");
    overflow_lock_.lock();
    overflow_.push(std::move(e));
    publish_overflow_min();
    overflow_lock_.unlock();
    return out;
  }

  std::optional<TaskT> pop(Place& p) {
    bool saw_empty = false;
    for (int attempt = 0; attempt < 3; ++attempt) {
      // Best slot of the apparently-minimal word.  The whole slot array
      // is in play, not default_k: push honors the caller's per-op k, so
      // any slot up to k_max may hold a task.
      Candidate best = descend_best(p);
      // Descents exhausted without a candidate: the tree may be
      // transiently stale-high (a raise re-check race hid a word), so
      // completeness falls back to the full occupancy scan.
      if (!best.found()) {
        best = scan_summary(p);
        // Repair exactly the word the tree was hiding.
        if (best.found()) min_index_.note_min(best.idx / 64, best.pri);
      }

      const double heap_min =
          overflow_min_.load(std::memory_order_acquire);
      if (!best.found() && heap_min == kEmpty) {
        saw_empty = true;
        break;
      }

      if (!best.found() || heap_min < best.pri) {
        KPS_POP_OVERFLOW_RACE_HOOK();
        KPS_FAILPOINT("central.pop.overflow");
        overflow_lock_.lock();
        // Re-check the pre-lock snapshot under the lock: a racing pop
        // may have drained the good prefix of the heap, and popping its
        // NEW top here would return a strictly worse task than the
        // window candidate we already hold.  Take the heap only while it
        // still beats `best` — reaping any tombstones that surface, each
        // of which re-exposes the next-best resident to the same check.
        // The callback runs inside claim_first, under overflow_lock_.
        std::optional<TaskT> taken = this->claim_first(
            p, [&](Entry& e) KPS_NO_THREAD_SAFETY_ANALYSIS {
              if (overflow_.empty() ||
                  (best.found() &&
                   !(static_cast<double>(overflow_.top().task.priority) <
                     best.pri))) {
                return false;
              }
              e = overflow_.pop();
              return true;
            });
        publish_overflow_min();
        overflow_lock_.unlock();
        if (taken) return this->popped(p, std::move(taken), false);
        if (best.found()) {
          p.counters->inc(Counter::overflow_stale);
        } else {
          continue;
        }
      }

      auto& slot = window_[best.idx];
      std::uint64_t expected = best.state;
      // order: relaxed (failure) — a lost claim race reads nothing from
      // the slot; success is acquire, pairing with the pusher's FULL
      // release so the entry copy below sees what it wrote.
      if (!KPS_FAILPOINT_FAIL("central.pop.claim_cas") &&
          slot.state.compare_exchange_strong(
              expected, best.state | detail::kSlotClaimed,
              std::memory_order_acquire, std::memory_order_relaxed)) {
        // Seam: a claimer parked here holds the slot CLAIMED — it must
        // wedge nobody but itself.
        KPS_FAILPOINT("central.pop.claimed");
        Entry e = std::move(slot.entry);
        // Release: the next pusher's acquire CAS orders our copy before
        // its overwrite.  The version bump fails every stale candidate.
        slot.state.store(((best.state >> 2) + 1) << 2 | detail::kSlotEmpty,
                         std::memory_order_release);
        const bool live = this->claim_or_reap(e, p);
        clear_bit_healed(best.idx);
        heal_word(p, best.idx / 64);
        if (!live) {
          // Tombstone reaped: that is progress, not a failed claim —
          // spend a fresh attempt budget on the next-best candidate.
          attempt = -1;
          continue;
        }
        // Sampled rank-error probe (PR 8): every rank_probe-th successful
        // window claim measures how many published tasks strictly beat
        // the one we took — A1's aggregate ratio as a live distribution.
        const int probe = this->cfg_.rank_probe;
        if (probe > 0 &&
            ++p.rank_probe_tick >= static_cast<std::uint64_t>(probe)) {
          p.rank_probe_tick = 0;
          probe_rank(p, static_cast<double>(e.task.priority));
        }
        return this->popped(p, std::move(e.task), false);
      }
      p.counters->inc(Counter::pop_cas_failures);
    }
    // Contention (lost every claim race) and drain (nothing anywhere)
    // exit through the split counters; pop_failures is DERIVED as their
    // sum at snapshot time (support/stats.hpp), never written here.
    return this->popped(p, std::nullopt, !saw_empty);
  }

 private:
  static constexpr double kEmpty = std::numeric_limits<double>::infinity();
  // Stale-word retries before a pop falls back to the full scan; at
  // quiescence each retry permanently heals the path it took.
  static constexpr int kMaxDescents = 4;

  /// A scan's pick: the slot, the FULL(v) word its claim CAS expects, and
  /// the priority hint read under that word.
  struct Candidate {
    std::size_t idx = 0;
    std::uint64_t state = 0;  // never 0 once found: FULL is phase 2
    double pri = kEmpty;
    bool found() const { return state != 0; }
  };

  /// Slot idx's {state, pri} if it is FULL, else a not-found candidate.
  Candidate read_slot(std::size_t idx) const {
    const auto& s = window_[idx];
    const std::uint64_t st = s.state.load(std::memory_order_acquire);
    if ((st & detail::kSlotPhase) != detail::kSlotFull) return {};
    // order: relaxed — the acquire above ordered this after the FULL(v)
    // publication; a newer residency's value is only a stale hint, and
    // the versioned claim CAS rejects it.
    return {idx, st, s.pri.load(std::memory_order_relaxed)};
  }

  /// Summary-guided free-slot probe: skip words whose 64 slots all look
  /// occupied, CAS into clear-bit candidates.  A stale-set bit (claim in
  /// flight) can hide a momentarily free slot; the worst case is a false
  /// overflow into the strict heap — never a lost task.  Moves `e` into
  /// the slot on success; leaves it untouched on failure.
  bool push_summary_guided(Place& p, std::size_t window, std::size_t start,
                           Entry& e) {
    const double pri = static_cast<double>(e.task.priority);
    const std::size_t words = (window + 63) / 64;
    for (std::size_t i = 0; i < words; ++i) {
      std::size_t w = start / 64 + i;
      if (w >= words) w -= words;
      // Bits beyond the per-op window (or the array) are not candidates.
      const std::size_t base = w * 64;
      const std::uint64_t valid =
          window - base >= 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (window - base)) - 1;
      // order: relaxed — the bitmap is a hint; a stale word only costs a
      // wasted probe or a false overflow, and the slot CAS re-validates.
      std::uint64_t free_bits =
          ~summary_[w].load(std::memory_order_relaxed) & valid;
      while (free_bits) {
        const std::size_t idx =
            base + static_cast<std::size_t>(std::countr_zero(free_bits));
        free_bits &= free_bits - 1;
        auto& slot = window_[idx];
        // order: relaxed — free-slot probe; the CAS is the real gate.
        std::uint64_t expected = slot.state.load(std::memory_order_relaxed);
        if ((expected & detail::kSlotPhase) != detail::kSlotEmpty) continue;
        // order: relaxed (failure) — lost slot race carries no data;
        // success is acquire, pairing with the last claimer's EMPTY
        // release so its copy-out happens before our overwrite.
        if (!KPS_FAILPOINT_FAIL("central.push.slot_cas") &&
            slot.state.compare_exchange_strong(
                expected, expected | detail::kSlotWriting,
                std::memory_order_acquire, std::memory_order_relaxed)) {
          slot.entry = std::move(e);
          // order: relaxed — published by the FULL release store below.
          slot.pri.store(pri, std::memory_order_relaxed);
          slot.state.store(expected | detail::kSlotFull,
                           std::memory_order_release);
          summary_[w].fetch_or(std::uint64_t{1} << (idx - base),
                               std::memory_order_release);
          min_index_.note_min(w, pri);
          return true;
        }
        p.counters->inc(Counter::push_cas_failures);
      }
    }
    return false;
  }

  /// Scan one summary word's occupied slots, folding them into the
  /// running best; applies the lazy stale-set repair exactly like the
  /// full scan.  Returns slot state words loaded.
  std::uint64_t scan_word(std::size_t w, Candidate* best) {
    std::uint64_t slot_loads = 0;
    std::uint64_t occ = summary_[w].load(std::memory_order_acquire);
    while (occ) {
      const std::size_t idx =
          w * 64 + static_cast<std::size_t>(std::countr_zero(occ));
      occ &= occ - 1;
      const Candidate c = read_slot(idx);
      ++slot_loads;
      if (c.found()) {
        if (!best->found() || c.pri < best->pri) *best = c;
      } else {
        // Stale-set repair: a heal re-set that lost a race with a
        // second claimer can strand a set bit over an empty slot,
        // and pushers never probe set bits — without this lazy
        // clear the window would leak capacity monotonically.
        clear_bit_healed(idx);
      }
    }
    return slot_loads;
  }

  /// Full occupancy scan: every summary word, every occupied slot.  The
  /// completeness fallback after kMaxDescents stale descents.
  Candidate scan_summary(Place& p) {
    Candidate best;
    std::uint64_t slot_loads = 0;
    p.counters->inc(Counter::summary_loads, summary_.size());
    for (std::size_t w = 0; w < summary_.size(); ++w) {
      slot_loads += scan_word(w, &best);
    }
    p.counters->inc(Counter::slot_loads, slot_loads);
    return best;
  }

  /// Ground truth for a min-index heal: the minimum priority currently
  /// published in word w (+inf when the word is empty).
  double word_min(std::size_t w, std::uint64_t* slot_loads) {
    double m = MinIndex::kEmpty;
    std::uint64_t occ = summary_[w].load(std::memory_order_acquire);
    while (occ) {
      const std::size_t idx =
          w * 64 + static_cast<std::size_t>(std::countr_zero(occ));
      occ &= occ - 1;
      ++*slot_loads;
      const Candidate c = read_slot(idx);
      if (c.found() && c.pri < m) m = c.pri;
    }
    return m;
  }

  /// Recompute word w's cached min from the slots and heal the tree
  /// path (after a claim emptied or worsened the word).
  void heal_word(Place& p, std::size_t w) {
    std::uint64_t slot_loads = 0;
    const std::uint64_t heals =
        min_index_.heal_block(w, [&] { return word_min(w, &slot_loads); });
    p.counters->inc(Counter::slot_loads, slot_loads);
    p.counters->inc(Counter::summary_loads);
    if (heals) p.counters->inc(Counter::min_heals, heals);
  }

  /// Hierarchical find-best: descend the min-index to the apparently
  /// best word and scan just that word.  A descent that lands on a
  /// stale word (claimed out or raise-hidden) heals it from ground
  /// truth and retries; the caller falls back to the full scan when
  /// every descent misses.
  Candidate descend_best(Place& p) {
    Candidate best;
    for (int d = 0; d < kMaxDescents; ++d) {
      p.counters->inc(Counter::tree_descents);
      std::uint64_t heals = 0;
      const std::size_t w = min_index_.min_block(&heals);
      if (heals) p.counters->inc(Counter::min_heals, heals);
      // kNone is either a genuinely empty tree (the retry re-reads one
      // root load — cheap) or a stale subtree min_block just healed, in
      // which case the next descent routes around it; either way spend
      // the remaining descent budget before the caller's full scan.
      if (w == MinIndex::kNone) continue;
      p.counters->inc(Counter::summary_loads);
      const std::uint64_t loads = scan_word(w, &best);
      p.counters->inc(Counter::slot_loads, loads);
      if (best.found()) return best;
      heal_word(p, w);
    }
    return best;
  }

  /// Clear a slot's summary bit, then heal the clear/set race: if a
  /// pusher refilled the slot before the clear, the re-read sees it FULL
  /// (the pusher's fetch_or on the same word orders its FULL store
  /// before our fetch_and's view) and re-sets the bit.  A pusher still
  /// WRITING sets the bit itself after its FULL store.
  void clear_bit_healed(std::size_t idx) {
    auto& word = summary_[idx / 64];
    const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
    word.fetch_and(~bit, std::memory_order_acq_rel);
    // Seam: widen the clear/re-read race window the heal exists to close.
    KPS_FAILPOINT("central.heal.clear_bit");
    if (read_slot(idx).found()) {
      word.fetch_or(bit, std::memory_order_release);
    }
  }

  /// Window-visible rank error of a just-claimed task: published window
  /// entries whose priority strictly beats it.  Tombstoned entries are
  /// counted as published (checking liveness would race the canceller
  /// for no measurement gain); with lifecycle off — the A1 configuration
  /// — the count is exact for the window tier.
  void probe_rank(Place& p, double claimed) {
    std::uint64_t rank = 0;
    for (std::size_t w = 0; w < summary_.size(); ++w) {
      std::uint64_t occ = summary_[w].load(std::memory_order_acquire);
      while (occ) {
        const std::size_t idx =
            w * 64 + static_cast<std::size_t>(std::countr_zero(occ));
        occ &= occ - 1;
        const Candidate c = read_slot(idx);
        if (c.found() && c.pri < claimed) ++rank;
      }
    }
    this->cfg_.rank_error->record(p.index, rank);
  }

  std::size_t window_size(int k) const {
    const auto requested = static_cast<std::size_t>(std::max(k, 1));
    return requested < window_.size() ? requested : window_.size();
  }

  void publish_overflow_min() KPS_REQUIRES(overflow_lock_) {
    overflow_min_.store(overflow_.empty()
                            ? kEmpty
                            : static_cast<double>(
                                  overflow_.top().task.priority),
                        std::memory_order_release);
  }

  std::vector<detail::WindowSlot<TaskT>> window_;
  std::vector<std::atomic<std::uint64_t>> summary_;  // 1 bit per window slot
  MinIndex min_index_;  // one cached min per summary word + d-ary tree
  Spinlock overflow_lock_;
  DaryHeap<Entry, detail::LcEntryLess, 4> overflow_
      KPS_GUARDED_BY(overflow_lock_);
  std::atomic<double> overflow_min_{kEmpty};
};

}  // namespace kps
