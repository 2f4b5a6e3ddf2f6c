// Slab-allocated calendar event queue — the DES hot path.
//
// The simulator previously kept a std::priority_queue<Event> plus an
// unordered_set<EventId> of lazily-deleted cancellations: every schedule
// heap-allocated a std::function, every fire paid O(log n) sift plus a hash
// lookup, and every cancel paid a hash insert now and a hash erase later. At
// cluster scale (1,000 TEs, millions of requests) that bookkeeping *is* the
// simulation. This queue replaces all of it:
//
//   * Event records live in a chunked slab, addressed by stable 32-bit slot
//     indices and recycled through a free list. A handle is
//     (generation << 32) | slot, so a stale handle (fired, cancelled, or
//     recycled event) is detected by a generation compare — Cancel is an O(1)
//     tombstone write, with no auxiliary hash set and no double lookup.
//   * Scheduling order is a calendar queue (Brown 1988): an array of bucket
//     lists, each bucket covering a `width`-ns slice of virtual time modulo
//     the bucket count. Records chain through intrusive `next` links inside
//     the slab. Near-uniform event populations insert and extract in O(1);
//     the bucket count doubles/halves with occupancy.
//   * The width follows the *dequeue stream*, not the live population:
//     Brown's rule, ~3x the mean gap between recently popped events, so a
//     bucket holds about three of the events the simulation is actually
//     consuming. A simulator's live population is bimodal — thousands of
//     pre-scheduled arrivals seconds apart beside one step event per engine
//     microseconds-to-milliseconds ahead — and a width sized to the sparse
//     mode chains every near event into one bucket, each insert walking
//     half of them. Every kGapWindow distinct-time pops the estimate is
//     recomputed (equal-time pops carry no spacing and are skipped; gaps over
//     twice the window mean, i.e. idle holes, are trimmed) and the ring is
//     rehashed in place when the width is off by more than
//     kWidthHysteresis x. Grow/shrink/migration rehashes take the same
//     estimate; the live-gap median sample is the cold-start fallback. A
//     sorted insert that walks a degenerate chain resamples that median and
//     rehashes in place only when it moves the width past the hysteresis;
//     when it does not, the walked chain is a dense cluster the sample
//     cannot see, and the ring is respread at that chain's own width. The
//     walk never grows the ring by itself. Sparse far events then sit in
//     later ring-years of their buckets, behind the near events; a sorted
//     insert that cannot take the tail path resumes after the previous insert
//     when it can, so an equal-time batch lands back to back in O(1) even
//     in front of such a far event.
//   * Far events — beyond one ring-year (width x nbuckets) of the dequeue
//     window at insert time — bypass the ring into an unsorted overflow
//     vector guarded by a lower time bound. Deadline guards and idle timers
//     parked seconds ahead of a microsecond-dense present would otherwise
//     force a full ring scan every time the dense region drains; with the
//     tier, "nothing due before t" is O(1) whenever t precedes the bound,
//     and the overflow migrates into a right-sized ring only when the
//     simulation actually reaches it. Cancelled overflow entries compact
//     away amortized O(1), so mass-cancelled far timers never touch the
//     ring at all.
//   * Callbacks are SmallFn (common/small_fn.h): captures up to 48 bytes are
//     stored inline in the slab record, so the schedule/fire cycle performs
//     zero heap traffic for the lambdas the engine/JE/CM actually schedule.
//
// Determinism contract: extraction order is the strict total order
// (time, seq) with seq assigned at insertion — exactly the FIFO tie-break of
// the old binary heap, so replay is bit-identical. Bucket geometry (count,
// width, window position) affects only cost, never order.
#ifndef DEEPSERVE_SIM_EVENT_QUEUE_H_
#define DEEPSERVE_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/small_fn.h"
#include "common/time_units.h"
#include "common/types.h"

namespace deepserve::sim {

class EventQueue {
 public:
  // Handle encoding: low 32 bits slot index, high 32 bits generation
  // (generations start at 1, so a valid handle is never 0).
  using Handle = uint64_t;
  static constexpr Handle kNilHandle = 0;

  EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Inserts a callback at virtual time t. FIFO among equal timestamps.
  Handle Insert(TimeNs t, common::SmallFn fn);

  // O(1): tombstones a live record. Returns false — with no side effects —
  // for a handle that already fired, was already cancelled, or was never
  // issued.
  bool Cancel(Handle h);

  // True iff the handle refers to a scheduled, not-yet-fired event.
  bool Live(Handle h) const;

  // Extracts the earliest live event if its time is <= limit; fills *t and
  // *fn and returns true. Returns false when the queue is empty or the
  // earliest event lies beyond the limit. Tombstoned records encountered on
  // the way are freed.
  bool PopIfDue(TimeNs limit, TimeNs* t, common::SmallFn* fn);

  // Live (scheduled, uncancelled) events across both tiers.
  size_t live() const { return ring_live_ + overflow_live_; }
  bool empty() const { return live() == 0; }

  // Introspection for tests and the perf harness.
  size_t bucket_count() const { return nbuckets_; }
  TimeNs bucket_width() const { return width_; }
  size_t slab_slots() const { return slot_count_; }
  size_t overflow_size() const { return overflow_live_; }
  // Deterministic cost counters: inserts so far, and chain links walked by
  // sorted ring inserts (0 for tail appends and overflow parks).
  uint64_t inserts() const { return next_seq_ - 1; }
  uint64_t links_walked() const { return links_walked_; }

 private:
  enum class SlotState : uint8_t { kFree = 0, kScheduled = 1, kCancelled = 2 };

  struct Record {
    TimeNs time = 0;
    uint64_t seq = 0;
    uint32_t next = kNilIdx;  // intrusive bucket chain (ring tier only)
    uint32_t gen = 1;
    SlotState state = SlotState::kFree;
    bool in_overflow = false;  // which tier owns the record while scheduled
    common::SmallFn fn;
  };

  static constexpr uint32_t kNilIdx = 0xffffffffu;
  static constexpr size_t kChunkShift = 9;  // 512 records per slab chunk
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;
  static constexpr size_t kMinBuckets = 16;
  static constexpr size_t kMaxBuckets = size_t{1} << 22;
  // A sorted insert that walks more links than this forces a rehash: the
  // width no longer matches the live distribution (e.g. a dense cluster far
  // from the window) and chains are degenerating toward a linked list.
  static constexpr size_t kMaxChainWalk = 128;
  // Width clamp keeps bucket_top_ arithmetic far from int64 overflow even
  // when a full bucket ring is scanned.
  static constexpr TimeNs kMaxWidth = SToNs(60);
  // Dequeue-stream width estimate: re-checked every kGapWindow distinct-time
  // pops (amortized O(1)), applied when off by more than kWidthHysteresis x.
  static constexpr size_t kGapWindow = 64;
  static constexpr TimeNs kWidthHysteresis = 4;

  static uint32_t IndexOf(Handle h) { return static_cast<uint32_t>(h & 0xffffffffu); }
  static uint32_t GenOf(Handle h) { return static_cast<uint32_t>(h >> 32); }

  Record& Rec(uint32_t idx) { return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)]; }
  const Record& Rec(uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  static bool Earlier(const Record& a, const Record& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq < b.seq;
  }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t idx);

  // Sorted insert into the record's bucket chain; O(1) append when the
  // record belongs at the tail (equal-time FIFO batches, ascending inserts).
  // Otherwise the walk starts after the previous ring insert (the finger)
  // when that record precedes this one in the same chain. Returns the number
  // of links walked so Insert can detect degeneration.
  size_t BucketInsert(uint32_t idx);
  // Frees tombstoned records at the head of bucket `b`'s chain.
  void PruneCancelledHead(size_t b);

  size_t BucketOf(TimeNs t) const {
    return static_cast<size_t>(static_cast<uint64_t>(t) / static_cast<uint64_t>(width_)) & mask_;
  }
  TimeNs WindowFloor() const { return bucket_top_ - width_; }
  // One ring-year: the span of virtual time the bucket array covers before
  // wrapping. Bounded by kMaxWidth * kMaxBuckets ~ 2.5e17 ns, far from
  // int64 overflow when added to event times.
  TimeNs RingSpan() const { return width_ * static_cast<TimeNs>(nbuckets_); }
  void RewindWindowTo(TimeNs t);
  // Index of the earliest live *ring* record (positioned as the head of
  // buckets_[cur_bucket_] on return), or kNilIdx when the ring holds none.
  // Overflow records are not considered; PopIfDue arbitrates the tiers.
  uint32_t FindEarliest();
  // Moves every live overflow record into the ring (freeing overflow
  // tombstones) via a right-sized Rehash, then resets the overflow bound.
  void MigrateOverflow();
  // Frees tombstoned overflow entries in place and recomputes the exact
  // lower bound; amortized O(1) per cancel by the > half-dead trigger.
  void CompactOverflow();
  // Redistributes the ring over `new_nbuckets` buckets. The width is
  // `width` when nonzero, else the dequeue-stream estimate once one exists;
  // `sample_live` (or a cold start) re-samples it from the live population
  // instead.
  void Rehash(size_t new_nbuckets, bool sample_live, std::vector<uint32_t>* extra = nullptr,
              TimeNs width = 0);
  // The ring's live records in (time, seq) order, without touching the ring.
  std::vector<uint32_t> SortedLive() const;
  TimeNs SampleWidth(const std::vector<uint32_t>& sorted_live) const;
  // Brown's width for bucket `b`'s chain alone: 3x the median gap between
  // its distinct live times (the current width when it holds fewer than two).
  TimeNs ChainWidth(size_t b) const;
  // True when width `w` differs from the current one by more than the
  // hysteresis — the rehash trigger every width estimate shares.
  bool OffWidth(TimeNs w) const {
    return w > width_ * kWidthHysteresis || w * kWidthHysteresis < width_;
  }
  // Feeds one popped time to the dequeue-stream estimate; every kGapWindow
  // gaps it refreshes dequeue_width_ and rehashes in place if needed.
  void NotePop(TimeNs t);

  // ---- slab ----------------------------------------------------------------
  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::vector<uint32_t> free_slots_;  // LIFO
  size_t slot_count_ = 0;

  // ---- calendar ------------------------------------------------------------
  std::vector<uint32_t> buckets_;  // head slot per bucket, kNilIdx when empty
  std::vector<uint32_t> tails_;    // tail of each bucket chain, for O(1) append
  size_t nbuckets_ = 0;
  size_t mask_ = 0;
  TimeNs width_ = 0;
  // The width a degenerate-walk resample last confirmed (0 = none since the
  // last rehash): long walks at this width skip the resample.
  TimeNs settled_width_ = 0;
  size_t cur_bucket_ = 0;   // dequeue scan position
  TimeNs bucket_top_ = 0;   // exclusive upper time bound of cur_bucket_'s window
  size_t cal_count_ = 0;    // records chained into buckets (live + tombstoned)
  size_t ring_live_ = 0;    // live records in the ring tier
  uint64_t next_seq_ = 1;
  uint64_t links_walked_ = 0;
  uint32_t last_insert_ = kNilIdx;  // BucketInsert's finger

  // ---- dequeue-stream width ------------------------------------------------
  TimeNs pop_gaps_[kGapWindow] = {};  // nonzero gaps between popped times
  size_t pop_gap_count_ = 0;
  TimeNs last_pop_time_ = kTimeNever;
  TimeNs dequeue_width_ = 0;  // 0 until the first window fills

  // ---- overflow tier -------------------------------------------------------
  std::vector<uint32_t> overflow_;  // unsorted slots, live and tombstoned
  size_t overflow_live_ = 0;
  size_t overflow_dead_ = 0;
  // Lower bound on every live overflow time. Never raised while entries
  // remain (cancellations may leave it slack — still a valid bound); made
  // exact by CompactOverflow and reset by MigrateOverflow. A ring candidate
  // strictly earlier than this bound is the global minimum: strict, because
  // an equal-time overflow record could carry the smaller seq.
  TimeNs overflow_lb_ = kTimeNever;
};

}  // namespace deepserve::sim

#endif  // DEEPSERVE_SIM_EVENT_QUEUE_H_
