// HybridKpq — the paper's headline hybrid k-priority task storage (§4.2):
// per-place private priority queues combined with a global published tier,
// ρ-relaxed both temporally and structurally, with spying.
//
// Tiers, from hottest to coldest:
//
//   private  — a place-owned d-ary heap behind a place-owned spinlock that
//              is uncontended except for spies: the owner's push/pop fast
//              path is one uncontended CAS plus plain heap work — no
//              allocation, and the only shared-line touch is one read of
//              the cached published minimum.
//   published— every k-th push (temporal ρ-relaxation) — or once k *live*
//              private tasks accumulate (structural, §5.3) — the owner
//              extracts its private heap as one ascending run, splits it
//              into pre-sorted segments of at most publish_batch tasks
//              (ablation A10; 1 mails one-task runs) and MAILS each one
//              to a peer's bounded MPSC inbox (support/mpsc_ring.hpp),
//              round-robin, self at P = 1.  An inbox entry IS a segment.
//              The owner folds its pending mail into its own SegmentStore
//              at pop time, flat-combining style, so the store is mutated
//              only under the owner's private lock — cache-hot, and no
//              place ever takes a lock shared by all publishers.  A full
//              inbox never blocks: the publisher keeps the run and folds
//              it into its own store (counter inbox_full_fallbacks).
//   spying   — the one cross-place pull.  A place whose own store is empty
//              or beaten by a foreign advert picks the victim with the
//              best min(private_min, inbox_min), try_locks its private
//              lock (never blocking the owner's spin loop), folds the
//              victim's inbox itself and claims from the whole store —
//              heap, segment heads, cold heap.  So no ready task, mailed
//              or owned, waits on a single place (ablation A2 measures
//              spying; test_mailbox proves liveness with a silent peer).
//
// Lifecycle (PR 7): every container of every tier holds LcEntry, so a
// task's control block rides along through publishes, mail, folds,
// spills and spies — a handle issued at push time stays redeemable
// wherever the task has migrated.  Tombstones are reaped at whichever
// claim point surfaces them, with a segment-head tombstone advancing the
// head exactly like a consumed task.
//
// Relaxation guarantee: at most k tasks per place are unpublished at any
// time, so a pop bypasses at most ρ = P·k better tasks (ablation A1).
// Pops compare the own best against the advertised foreign minima before
// executing local work, keeping the realized rank error far below ρ.
#pragma once

#include <algorithm>
#include <atomic>
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
#include "support/mpsc_ring.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"
#include "support/thread_safety.hpp"

namespace kps {

namespace detail {

inline constexpr double kHybridEmpty = std::numeric_limits<double>::infinity();

template <typename TaskT>
double prio(const LcEntry<TaskT>& e) {
  return static_cast<double>(e.task.priority);
}

/// A place's folded published work: pre-sorted segments (one per
/// folded run, `head` indexing the best unconsumed task) behind an
/// exact segment-head index, plus a cold heap fed by the spill policy.
/// Exhausted segments park their slot on a free list and their vector
/// on a bounded pool that also feeds the owner's outgoing mail, so a
/// steady-state publish → fold → claim cycle allocates nothing.  Not
/// synchronized: the owning Place guards it with private_lock.
template <typename TaskT>
class SegmentStore {
  using Entry = LcEntry<TaskT>;

 public:
  /// Retained run buffers are capped at one ring's worth: inflow is
  /// unbounded for a place that receives more mail than it sends (the
  /// flood victim), and a publish burst can never draw more anyway.
  void set_pool_cap(std::size_t cap) { pool_cap_ = cap; }

  bool empty() const { return index_.empty() && cold_.empty(); }
  std::size_t live_segments() const { return index_.size(); }

  /// Best task anywhere in the store; kHybridEmpty when empty.
  double best() const {
    double m = index_.empty() ? kHybridEmpty : index_.top().priority;
    if (!cold_.empty()) m = std::min(m, prio(cold_.top()));
    return m;
  }

  /// Splice one ascending run in as a segment — the vector is swapped
  /// in whole, O(log S) against the head index.  `run` comes back
  /// holding the slot's previous (empty) capacity.
  void ingest(std::vector<Entry>& run) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(segments_.size());
      segments_.emplace_back();
    }
    Segment& s = segments_[slot];
    s.run.clear();
    std::swap(s.run, run);
    s.head = 0;
    index_.push({prio(s.run.front()), slot});
  }

  /// Extract the best entry (precondition: !empty()).  A consumed
  /// segment head advances; an exhausted segment recycles slot and run.
  Entry claim() {
    if (index_.empty() ||
        (!cold_.empty() && prio(cold_.top()) < index_.top().priority)) {
      return cold_.pop();
    }
    const SegHead h = index_.pop();
    Segment& s = segments_[h.seg];
    Entry e = std::move(s.run[s.head]);
    if (++s.head < s.run.size()) {
      index_.push({prio(s.run[s.head]), h.seg});
    } else {
      release(h.seg);
    }
    return e;
  }

  /// Spill policy (counter segment_spills): small k floods a store with
  /// short runs faster than pops retire them, and every live segment
  /// is an index entry each claim must sift past.  Keep the hottest
  /// half (smallest heads) as segments and fold every colder segment's
  /// remaining tasks into the COLD heap — never back into the private
  /// heap, which is the republish source (cold tasks must not
  /// ping-pong through the mail forever).  The store's minimum and
  /// every relaxation bound are untouched.
  void spill(std::size_t limit) {
    spill_buf_.clear();
    while (!index_.empty()) spill_buf_.push_back(index_.pop());
    const std::size_t keep = std::max<std::size_t>(limit / 2, 1);
    for (std::size_t i = 0; i < keep; ++i) index_.push(spill_buf_[i]);
    for (std::size_t i = keep; i < spill_buf_.size(); ++i) {
      Segment& s = segments_[spill_buf_[i].seg];
      for (std::size_t j = s.head; j < s.run.size(); ++j) {
        cold_.push(std::move(s.run[j]));
      }
      release(spill_buf_[i].seg);
    }
  }

  /// Bank a spent run buffer's capacity (dropped beyond the cap).
  void recycle(std::vector<Entry>&& run) {
    if (pool_.size() < pool_cap_) {
      run.clear();
      pool_.push_back(std::move(run));
    }
  }

  /// Top `to` up to `n` pooled buffers (the publisher's mail staging).
  void lend(std::vector<std::vector<Entry>>& to, std::size_t n) {
    while (to.size() < n && !pool_.empty()) {
      to.push_back(std::move(pool_.back()));
      pool_.pop_back();
    }
  }

 private:
  struct Segment {
    std::vector<Entry> run;
    std::size_t head = 0;
  };
  /// Head index entry: exact (one per live segment, updated whenever
  /// a head advances), so its top IS the best segment task.
  struct SegHead {
    double priority;
    std::uint32_t seg;
  };
  struct SegHeadLess {
    bool operator()(const SegHead& a, const SegHead& b) const {
      return a.priority < b.priority;
    }
  };

  void release(std::uint32_t slot) {
    Segment& s = segments_[slot];
    recycle(std::move(s.run));
    s.run = std::vector<Entry>();
    s.head = 0;
    free_.push_back(slot);
  }

  std::vector<Segment> segments_;  // slot-addressed
  std::vector<std::uint32_t> free_;
  DaryHeap<SegHead, SegHeadLess, 4> index_;
  std::vector<std::vector<Entry>> pool_;
  DaryHeap<Entry, LcEntryLess, 4> cold_;
  std::vector<SegHead> spill_buf_;
  std::size_t pool_cap_ = 0;
};

template <typename TaskT>
struct alignas(kCacheLine) HybridPlace : PlaceCore {
  using Entry = LcEntry<TaskT>;

  // The place's own work: private heap plus folded store.  The lock is
  // the owner's own cache line; spies only try_lock it.  Whoever holds
  // it is also the single consumer of `inbox`.
  Spinlock private_lock;
  DaryHeap<Entry, LcEntryLess, 4> private_heap
      KPS_GUARDED_BY(private_lock);
  SegmentStore<TaskT> store KPS_GUARDED_BY(private_lock);
  std::uint64_t pushes_since_publish KPS_GUARDED_BY(private_lock) = 0;
  // Advertised best of private heap + store: spies can claim any of it.
  std::atomic<double> private_min{kHybridEmpty};

  // Bounded MPSC inbox: peers commit pre-sorted runs; the ring is its
  // own synchronization (reserve/commit protocol), so it needs no
  // capability on the producer side.
  MpscRing<std::vector<Entry>> inbox;
  // Advisory minimum over unfolded inbox entries: CAS-min'd by
  // appenders, reset by every fold.  A hint — a stale value misroutes
  // a redirect or a spy, never loses a task.
  std::atomic<double> inbox_min{kHybridEmpty};

  // Owner-only publish state: flush_buf is filled under private_lock
  // and mailed after it drops; mail_pool holds run buffers staged from
  // the store's pool while the publish still held the lock.  No single
  // capability covers them — the owner thread is the ownership
  // argument, so they stay unguarded on purpose.
  std::vector<Entry> flush_buf;
  std::vector<std::vector<Entry>> mail_pool;
  std::uint64_t publish_cursor = 0;  // round-robin publish target

  double own_best() const KPS_REQUIRES(private_lock) {
    const double h =
        private_heap.empty() ? kHybridEmpty : prio(private_heap.top());
    return std::min(h, store.best());
  }
  /// Extract the best own entry (precondition: own_best() finite).
  Entry claim_best() KPS_REQUIRES(private_lock) {
    if (private_heap.empty() ||
        (!store.empty() && store.best() <= prio(private_heap.top()))) {
      return store.claim();
    }
    return private_heap.pop();
  }
  void publish_private_min() KPS_REQUIRES(private_lock) {
    private_min.store(own_best(), std::memory_order_release);
  }
  /// What a peer can claim here: owned work or still-unfolded mail.
  double advert() const {
    return std::min(private_min.load(std::memory_order_acquire),
                    inbox_min.load(std::memory_order_acquire));
  }
};

}  // namespace detail

template <typename TaskT>
class HybridKpq
    : public StorageBase<HybridKpq<TaskT>, TaskT, detail::HybridPlace<TaskT>> {
  static constexpr double kEmptyMin = detail::kHybridEmpty;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

 public:
  using Entry = detail::LcEntry<TaskT>;
  using Place = detail::HybridPlace<TaskT>;

  HybridKpq(std::size_t places, StorageConfig cfg, StatsRegistry* stats = nullptr)
      : StorageBase<HybridKpq, TaskT, Place>(places, cfg, stats) {
    for (Place& p : this->places_) {
      p.inbox.init(static_cast<std::size_t>(cfg.inbox_slots));
      SpinGuard guard(p.private_lock);  // uncontended; keeps the analysis whole
      p.store.set_pool_cap(p.inbox.capacity());
    }
  }

  /// Capacity-aware push.  Shed tier: the pusher's private heap only —
  /// the hot set it owns the lock for.  Folded segments are published
  /// work in flight; ranking their tails would cost an O(S) scan for a
  /// path whose contract is "cheaply reachable worst", so an empty
  /// private heap sheds the incoming task.  No foreign place is touched.
  PushOutcome<TaskT> try_push(Place& p, int k, TaskT task) {
    if (auto full = this->at_capacity(
            p, task, [&](TaskT& t, PushOutcome<TaskT>* out) {
              SpinGuard guard(p.private_lock);
              if (!this->displace_worst(p.private_heap, t, p, out)) {
                return false;
              }
              p.publish_private_min();
              return true;
            })) {
      return std::move(*full);
    }
    PushOutcome<TaskT> out;
    push_accepted(p, k, std::move(task), &out.handle);
    return out;
  }

  std::optional<TaskT> pop(Place& p) {
    fold_inbox(p);
    // Own best first, unless a live foreign advert beats it (redirect).
    bool redirected = false;
    p.private_lock.lock();
    std::optional<TaskT> out = claim_locked(p, p, &redirected);
    p.private_lock.unlock();
    bool saw_tasks = redirected;
    if (!out && this->cfg_.enable_spying) out = spy(p, saw_tasks);
    if (!out && redirected) {
      // The redirect raced away (or spying is off): our own tasks remain
      // this storage's obligation — drain unconditionally.
      p.private_lock.lock();
      out = claim_locked(p, p, nullptr);
      p.private_lock.unlock();
    }
    // Classification: "contended" if any tier advertised tasks this place
    // failed to claim (redirect, lost try_lock, tombstone-only sweep);
    // "empty" if every tier looked drained.
    return this->popped(p, std::move(out), saw_tasks);
  }

 private:
  /// Accepted push: private heap; at the publish threshold (or at every
  /// push when k <= 0) flush the heap as one ascending run and mail it.
  void push_accepted(Place& p, int k, TaskT task, TaskHandle* handle) {
    this->admitted(p);
    p.private_lock.lock();
    p.private_heap.push(this->ledger_.wrap(std::move(task), handle));
    ++p.pushes_since_publish;
    // An injected attempt failure defers the publish without resetting
    // the push counter, so the next push retries — temporal relaxation
    // stretches (more unpublished tasks) but no task is lost.
    const bool publish =
        (k <= 0 ||
         (this->cfg_.structural_relaxation
              ? p.private_heap.size() >= static_cast<std::size_t>(k)
              : p.pushes_since_publish >= static_cast<std::uint64_t>(k))) &&
        !KPS_FAILPOINT_FAIL("hybrid.publish.attempt");
    if (!publish) {
      p.publish_private_min();
      p.private_lock.unlock();
      return;
    }

    p.flush_buf.clear();
    p.private_heap.extract_sorted_segment(p.flush_buf);
    p.pushes_since_publish = 0;
    p.publish_private_min();
    const std::size_t batch = run_batch();
    p.store.lend(p.mail_pool, (p.flush_buf.size() + batch - 1) / batch);
    p.private_lock.unlock();

    // Seam: between the private flush and the inbox commits the flushed
    // tasks live only in flush_buf — invisible to every other place.  A
    // stall here is the "publisher preempted mid-publish" scenario; the
    // conservation harness proves the tasks reappear after release.
    KPS_FAILPOINT("hybrid.publish.flush");

    const std::size_t flushed = p.flush_buf.size();
    dispatch_runs(p);
    p.counters->inc(Counter::publishes);
    p.counters->inc(Counter::published_items, flushed);
    detail::trace_ev(p, TraceEv::publish,
                     static_cast<std::uint32_t>(flushed));
  }

  std::size_t run_batch() const {
    return static_cast<std::size_t>(this->cfg_.publish_batch);
  }

  /// Split the ascending flush into segments of at most publish_batch
  /// tasks and mail each one; successive segments rotate over targets so
  /// one large flush spreads instead of flooding a single peer.
  void dispatch_runs(Place& p) {
    const std::size_t batch = run_batch();
    const std::size_t flushed = p.flush_buf.size();
    for (std::size_t off = 0; off < flushed; off += batch) {
      const std::size_t n = std::min(batch, flushed - off);
      std::vector<Entry> run;
      if (!p.mail_pool.empty()) {
        run = std::move(p.mail_pool.back());
        p.mail_pool.pop_back();
      }
      run.reserve(n);
      run.insert(run.end(),
                 std::make_move_iterator(p.flush_buf.begin() +
                                         static_cast<std::ptrdiff_t>(off)),
                 std::make_move_iterator(p.flush_buf.begin() +
                                         static_cast<std::ptrdiff_t>(off + n)));
      mail_run(p, std::move(run));
    }
  }

  /// Round-robin publish target over the peers; self only at P = 1
  /// (publishing means sharing — a solo place folds its own mail).
  Place& pick_target(Place& p) {
    const std::size_t n = this->places_.size();
    if (n == 1) return p;
    const std::size_t offset = 1 + (p.publish_cursor++ % (n - 1));
    return this->places_[(p.index + offset) % n];
  }

  /// CAS-min the target's advisory inbox minimum after a commit.
  static void note_inbox_min(Place& target, double best) {
    // order: relaxed — advisory minimum only; the ring commit's release
    // store already published the run, this just tunes the redirect hint.
    double cur = target.inbox_min.load(std::memory_order_relaxed);
    while (best < cur &&
           // order: relaxed — same advisory-minimum argument; a lost CAS
           // reloads and retries, a stale win misroutes one redirect.
           !target.inbox_min.compare_exchange_weak(
               cur, best, std::memory_order_relaxed)) {
    }
  }

  /// Mail one pre-sorted run.  Full-ring fallback: the publisher keeps
  /// the run and folds it into its OWN store — tasks never block and
  /// never drop, the inbox bound degrades into local accumulation (still
  /// advertised via private_min, still spy-claimable).
  void mail_run(Place& p, std::vector<Entry> run) {
    Place& target = pick_target(p);
    const double best = detail::prio(run.front());
    // Seam first: an injected append failure exercises the full-ring
    // fallback without actually filling inbox_slots slots.
    const bool appended = !KPS_FAILPOINT_FAIL("hybrid.inbox.append") &&
                          target.inbox.try_push(std::move(run));
    if (appended) {
      note_inbox_min(target, best);
      p.counters->inc(Counter::inbox_appends);
      detail::trace_ev(p, TraceEv::inbox_append,
                       static_cast<std::uint64_t>(target.index));
      refresh_global_pub_min();
      return;
    }
    p.counters->inc(Counter::inbox_full_fallbacks);
    detail::trace_ev(p, TraceEv::inbox_full,
                     static_cast<std::uint64_t>(target.index));
    p.private_lock.lock();
    p.store.ingest(run);
    p.counters->inc(Counter::segment_merges);
    maybe_spill(p, p);
    p.publish_private_min();
    // The swap left the replaced segment's old capacity in `run`.
    p.store.recycle(std::move(run));
    p.private_lock.unlock();
    refresh_global_pub_min();
  }

  /// Owner fold at pop time.  The unlocked emptiness peek is only a hint
  /// — a spy holding private_lock may consume in between, and the locked
  /// drain tolerates finding nothing.
  void fold_inbox(Place& p) {
    if (!p.inbox.maybe_nonempty()) return;
    p.private_lock.lock();
    const std::size_t folded = fold_inbox_locked(p, p);
    p.private_lock.unlock();
    if (folded > 0) refresh_global_pub_min();
  }

  /// Drain `owner`'s inbox into its store on behalf of `by` (the owner,
  /// or a spy that won owner.private_lock — the ring's single consumer is
  /// whoever holds that lock).  Bounded to one ring's worth of entries so
  /// latency stays bounded while producers keep appending.  Counters and
  /// the trace event go to `by`: trace rings are single-writer.
  std::size_t fold_inbox_locked(Place& owner, Place& by)
      KPS_REQUIRES(owner.private_lock) {
    // Reset the advisory minimum BEFORE draining: appends landing mid-
    // fold re-advertise themselves; entries we drain are re-advertised
    // via private_min below.  A racing CAS-min from an already-drained
    // entry leaves a stale-low hint — one wasted redirect, never a lost
    // task.
    // order: relaxed — advisory minimum, see note_inbox_min.
    owner.inbox_min.store(kEmptyMin, std::memory_order_relaxed);
    // Seam: stretch the fold critical section (private_lock held) so
    // racing spies pile up on the owner during the fold.
    KPS_FAILPOINT("hybrid.inbox.fold");
    std::vector<Entry> run;
    std::size_t folded = 0;
    const std::size_t limit = owner.inbox.capacity();
    while (folded < limit) {
      if (run.capacity() != 0) {
        // Swapped-out segment capacity from the previous lap; bank it
        // before try_pop's move-assign would free it.
        owner.store.recycle(std::move(run));
        run = std::vector<Entry>();
      }
      if (!owner.inbox.try_pop(run)) break;
      owner.store.ingest(run);
      by.counters->inc(Counter::segment_merges);
      ++folded;
    }
    if (folded > 0) {
      maybe_spill(owner, by);
      owner.publish_private_min();
      by.counters->inc(Counter::inbox_folds);
      detail::trace_ev(by, TraceEv::inbox_fold,
                       static_cast<std::uint64_t>(folded));
    }
    return folded;
  }

  void maybe_spill(Place& owner, Place& by) KPS_REQUIRES(owner.private_lock) {
    const auto limit = static_cast<std::size_t>(this->cfg_.max_segments);
    if (owner.store.live_segments() <= limit) return;
    // Seam: stretch the spill critical section (private_lock held) so
    // racing spies pile up during the fold.
    KPS_FAILPOINT("hybrid.spill");
    owner.store.spill(limit);
    by.counters->inc(Counter::segment_spills);
  }

  /// Re-sweep every place's adverts (owned store and unfolded mail) into
  /// the cached global minimum.  Called after publish, fold and spy — the
  /// cold operations — so the owner fast path stays O(1).  The cache is
  /// a hint: a stale value momentarily misroutes a pop (slightly higher
  /// realized rank error or one spy detour), never loses a task.
  void refresh_global_pub_min() {
    double best = kEmptyMin;
    for (const Place& q : this->places_) best = std::min(best, q.advert());
    global_pub_min_.store(best, std::memory_order_release);
  }

  /// Best live advert of any place OTHER than `p`: the redirect
  /// verification (the shared cache can be stale from p's own claims, so
  /// a redirect is only taken against a live foreign reading).
  double best_foreign_advert(const Place& p) const {
    double best = kEmptyMin;
    for (std::size_t i = 0; i < this->places_.size(); ++i) {
      if (i != p.index) best = std::min(best, this->places_[i].advert());
    }
    return best;
  }

  /// Claim the best live task of `owner`'s private heap + store for `by`,
  /// reaping tombstones on the way (credited to `by`).  With `redirected`
  /// non-null (the owner's own pop), stop and set it once a live foreign
  /// advert beats the own best.
  std::optional<TaskT> claim_locked(Place& owner, Place& by, bool* redirected)
      KPS_REQUIRES(owner.private_lock) {
    // The callback runs inside claim_first, under owner.private_lock.
    return this->claim_first(by, [&](Entry& e) KPS_NO_THREAD_SAFETY_ANALYSIS {
      const double mine = owner.own_best();
      if (mine == kEmptyMin) return false;
      if (redirected != nullptr &&
          global_pub_min_.load(std::memory_order_acquire) < mine) {
        // The hint claims a better advert somewhere.  Verify against the
        // live foreign adverts — our own claims make the shared cache go
        // stale-low, and only a confirmed foreign reading is worth the
        // spy detour.
        const double foreign = best_foreign_advert(owner);
        if (foreign < mine) {
          *redirected = true;
          return false;
        }
        // Quiet the stale hint.  The store deliberately excludes our own
        // advert so our next claims do not re-trigger the O(P) verify;
        // events (publish, fold, spy) restore the full sweep.
        global_pub_min_.store(foreign, std::memory_order_release);
      }
      e = owner.claim_best();
      owner.publish_private_min();
      return true;
    });
  }

  std::optional<TaskT> spy(Place& p, bool& saw_tasks) {
    if (KPS_FAILPOINT_FAIL("hybrid.spy")) return std::nullopt;
    // Pick the victim advertising the best task — owned or still in its
    // unfolded mail; never spin on a victim's lock — its owner is on the
    // hot path.
    double best = kEmptyMin;
    std::size_t idx = kNone;
    for (std::size_t i = 0; i < this->places_.size(); ++i) {
      if (i == p.index) continue;
      const double m = this->places_[i].advert();
      if (m < best) {
        best = m;
        idx = i;
      }
    }
    if (idx == kNone) return std::nullopt;
    saw_tasks = true;
    Place& victim = this->places_[idx];
    if (!victim.private_lock.try_lock()) return std::nullopt;
    // Fold the victim's mail first, so no mailed task waits on its owner.
    fold_inbox_locked(victim, p);
    std::optional<TaskT> out = claim_locked(victim, p, nullptr);
    victim.private_lock.unlock();
    // Spying is already the slow path; a refresh here retires stale
    // hints (the victim we just probed may have drained).
    refresh_global_pub_min();
    if (out) {
      p.counters->inc(Counter::spied_items);
      // Spy records on the SPY'S own ring (SPSC: one writer per ring);
      // the victim's id rides in arg.
      detail::trace_ev(p, TraceEv::spy, static_cast<std::uint32_t>(idx));
    }
    return out;
  }

  alignas(kCacheLine) std::atomic<double> global_pub_min_{kEmptyMin};
};

}  // namespace kps
