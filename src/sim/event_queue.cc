#include "sim/event_queue.h"

#include <algorithm>
#include <utility>
#include "common/time_units.h"

namespace deepserve::sim {

EventQueue::EventQueue() {
  nbuckets_ = kMinBuckets;
  mask_ = nbuckets_ - 1;
  width_ = UsToNs(10);
  buckets_.assign(nbuckets_, kNilIdx);
  tails_.assign(nbuckets_, kNilIdx);
  cur_bucket_ = 0;
  bucket_top_ = width_;
}

uint32_t EventQueue::AllocSlot() {
  if (!free_slots_.empty()) {
    uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    return idx;
  }
  DS_CHECK_LT(slot_count_, static_cast<size_t>(kNilIdx)) << "event slab exhausted";
  if ((slot_count_ >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Record[]>(kChunkSize));
  }
  return static_cast<uint32_t>(slot_count_++);
}

void EventQueue::FreeSlot(uint32_t idx) {
  Record& r = Rec(idx);
  r.fn.Reset();
  r.state = SlotState::kFree;
  r.next = kNilIdx;
  ++r.gen;
  if (r.gen == 0) {  // generation wrap: 0 is reserved so handles stay nonzero
    r.gen = 1;
  }
  free_slots_.push_back(idx);
}

void EventQueue::RewindWindowTo(TimeNs t) {
  uint64_t vslot = static_cast<uint64_t>(t) / static_cast<uint64_t>(width_);
  cur_bucket_ = static_cast<size_t>(vslot) & mask_;
  bucket_top_ = static_cast<TimeNs>((vslot + 1) * static_cast<uint64_t>(width_));
}

size_t EventQueue::BucketInsert(uint32_t idx) {
  Record& r = Rec(idx);
  size_t b = BucketOf(r.time);
  // Tail fast path: a record ordered at or after the chain tail appends in
  // O(1). This covers the dominant patterns — equal-timestamp FIFO batches
  // (seq is monotone, so they always append) and ascending-time inserts.
  uint32_t tail = tails_[b];
  uint32_t finger = last_insert_;
  last_insert_ = idx;
  if (tail != kNilIdx && Earlier(Rec(tail), r)) {
    r.next = kNilIdx;
    Rec(tail).next = idx;
    tails_[b] = idx;
    return 0;
  }
  // Finger: resume the walk after the previous ring insert when it is still
  // chained in this bucket ahead of the record. An equal-time batch is
  // re-inserted one pop at a time, so its records land back to back — in
  // front of any sparse far event sharing the bucket, where the tail path
  // cannot reach. (A chained record is exactly one that is neither free nor
  // parked in the overflow; its bucket is BucketOf(time) under the current
  // geometry.)
  uint32_t* link = &buckets_[b];
  if (finger != kNilIdx && finger != idx) {
    Record& f = Rec(finger);
    if (f.state != SlotState::kFree && !f.in_overflow && BucketOf(f.time) == b && Earlier(f, r)) {
      link = &f.next;
    }
  }
  size_t walked = 0;
  while (*link != kNilIdx && Earlier(Rec(*link), r)) {
    link = &Rec(*link).next;
    ++walked;
  }
  r.next = *link;
  *link = idx;
  if (r.next == kNilIdx) {
    tails_[b] = idx;
  }
  return walked;
}

EventQueue::Handle EventQueue::Insert(TimeNs t, common::SmallFn fn) {
  DS_CHECK_GE(t, 0);
  uint32_t idx = AllocSlot();
  Record& r = Rec(idx);
  r.time = t;
  r.seq = next_seq_++;
  r.state = SlotState::kScheduled;
  r.fn = std::move(fn);
  // An insert behind the dequeue window (legal: the window may have advanced
  // ahead of the clock while peeking) rewinds the scan so the event is found.
  if (t < WindowFloor()) {
    RewindWindowTo(t);
  }
  Handle h = (static_cast<uint64_t>(r.gen) << 32) | idx;
  if (t >= WindowFloor() + RingSpan()) {
    // Beyond one ring-year of the window: park in the overflow tier so the
    // ring's scans never wade through far-future timers.
    r.in_overflow = true;
    overflow_.push_back(idx);
    ++overflow_live_;
    if (t < overflow_lb_) {
      overflow_lb_ = t;
    }
    return h;
  }
  r.in_overflow = false;
  size_t walked = BucketInsert(idx);
  links_walked_ += walked;
  ++cal_count_;
  ++ring_live_;
  // Grow on occupancy only. A degenerate chain walk means the width does not
  // fit the live distribution (e.g. a dense cluster far from the window that
  // the dequeue stream has not reached yet): respread at the same ring size
  // when resampling the live population moves the width by more than the
  // hysteresis. When it does not — the sample is dominated by sparse events
  // elsewhere — the walked chain is the dense cluster itself, so respread at
  // the width its own gaps call for. Either way remember the width, so
  // further long walks neither resample nor rehash until some rehash
  // changes it.
  bool degenerate = walked > kMaxChainWalk;
  if (cal_count_ > nbuckets_ * 2 && nbuckets_ < kMaxBuckets) {
    Rehash(nbuckets_ * 2, /*sample_live=*/degenerate);
  } else if (degenerate && width_ != settled_width_) {
    TimeNs sampled = SampleWidth(SortedLive());
    if (OffWidth(sampled)) {
      Rehash(nbuckets_, /*sample_live=*/true);
    } else {
      TimeNs dense = ChainWidth(BucketOf(t));
      if (OffWidth(dense)) {
        Rehash(nbuckets_, /*sample_live=*/false, nullptr, dense);
      }
      settled_width_ = width_;
    }
  }
  return h;
}

TimeNs EventQueue::ChainWidth(size_t b) const {
  std::vector<TimeNs> gaps;
  TimeNs prev = -1;
  for (uint32_t idx = buckets_[b]; idx != kNilIdx; idx = Rec(idx).next) {
    const Record& r = Rec(idx);
    if (r.state != SlotState::kScheduled) {
      continue;
    }
    if (prev >= 0 && r.time > prev) {
      gaps.push_back(r.time - prev);
    }
    prev = r.time;
  }
  if (gaps.empty()) {
    return width_;  // one distinct time: tail appends already keep it O(1)
  }
  std::nth_element(gaps.begin(), gaps.begin() + static_cast<ptrdiff_t>(gaps.size() / 2),
                   gaps.end());
  return std::clamp<TimeNs>(gaps[gaps.size() / 2] * 3, 1, kMaxWidth);
}

bool EventQueue::Cancel(Handle h) {
  if (h == kNilHandle) {
    return false;
  }
  uint32_t idx = IndexOf(h);
  if (idx >= slot_count_) {
    return false;
  }
  Record& r = Rec(idx);
  if (r.state != SlotState::kScheduled || r.gen != GenOf(h)) {
    return false;
  }
  r.state = SlotState::kCancelled;
  r.fn.Reset();  // release captures now; the tombstone is freed when swept
  if (r.in_overflow) {
    --overflow_live_;
    ++overflow_dead_;
    if (overflow_dead_ > overflow_.size() / 2 && overflow_dead_ > 64) {
      CompactOverflow();
    }
  } else {
    --ring_live_;
  }
  return true;
}

void EventQueue::CompactOverflow() {
  size_t kept = 0;
  TimeNs lb = kTimeNever;
  for (uint32_t idx : overflow_) {
    Record& r = Rec(idx);
    if (r.state == SlotState::kScheduled) {
      overflow_[kept++] = idx;
      if (r.time < lb) {
        lb = r.time;
      }
    } else {
      FreeSlot(idx);
    }
  }
  overflow_.resize(kept);
  overflow_dead_ = 0;
  overflow_lb_ = lb;
  DS_CHECK_EQ(kept, overflow_live_);
}

void EventQueue::MigrateOverflow() {
  std::vector<uint32_t> moved;
  moved.reserve(overflow_live_);
  for (uint32_t idx : overflow_) {
    Record& r = Rec(idx);
    if (r.state == SlotState::kScheduled) {
      r.in_overflow = false;
      moved.push_back(idx);
    } else {
      FreeSlot(idx);
    }
  }
  DS_CHECK_EQ(moved.size(), overflow_live_);
  overflow_.clear();
  overflow_live_ = 0;
  overflow_dead_ = 0;
  overflow_lb_ = kTimeNever;
  ring_live_ += moved.size();
  // Size the ring for the combined population before distributing: target
  // occupancy in [1/2, 1] so neither the grow nor the shrink trigger fires
  // on the next operation.
  size_t total = cal_count_ + moved.size();
  size_t target = kMinBuckets;
  while (target < total && target < kMaxBuckets) {
    target <<= 1;
  }
  Rehash(target, /*sample_live=*/false, &moved);
}

bool EventQueue::Live(Handle h) const {
  if (h == kNilHandle) {
    return false;
  }
  uint32_t idx = IndexOf(h);
  if (idx >= slot_count_) {
    return false;
  }
  const Record& r = Rec(idx);
  return r.state == SlotState::kScheduled && r.gen == GenOf(h);
}

void EventQueue::PruneCancelledHead(size_t b) {
  uint32_t* head = &buckets_[b];
  while (*head != kNilIdx) {
    uint32_t idx = *head;
    Record& r = Rec(idx);
    if (r.state != SlotState::kCancelled) {
      break;
    }
    *head = r.next;
    --cal_count_;
    FreeSlot(idx);
  }
  if (*head == kNilIdx) {
    tails_[b] = kNilIdx;
  }
}

uint32_t EventQueue::FindEarliest() {
  if (ring_live_ == 0) {
    return kNilIdx;
  }
  // One calendar year: visit each bucket's current window in time order. The
  // first head that falls inside its window is the global minimum — equal
  // times always share a bucket, and the window floor never passes a live
  // event (inserts behind it rewind the scan).
  for (size_t scanned = 0; scanned < nbuckets_; ++scanned) {
    PruneCancelledHead(cur_bucket_);
    uint32_t head = buckets_[cur_bucket_];
    if (head != kNilIdx && Rec(head).time < bucket_top_) {
      return head;
    }
    cur_bucket_ = (cur_bucket_ + 1) & mask_;
    bucket_top_ += width_;
  }
  // Nothing due within a full year: every remaining event is far away. Each
  // bucket list is sorted, so the global minimum is some bucket's head — find
  // it directly and jump the window to it.
  uint32_t best = kNilIdx;
  for (size_t b = 0; b < nbuckets_; ++b) {
    PruneCancelledHead(b);
    uint32_t h = buckets_[b];
    if (h == kNilIdx) {
      continue;
    }
    if (best == kNilIdx || Earlier(Rec(h), Rec(best))) {
      best = h;
    }
  }
  DS_CHECK(best != kNilIdx) << "ring_live_ says events exist but no bucket holds one";
  RewindWindowTo(Rec(best).time);
  return best;
}

bool EventQueue::PopIfDue(TimeNs limit, TimeNs* t, common::SmallFn* fn) {
  for (;;) {
    uint32_t idx = FindEarliest();
    // A ring candidate strictly before the overflow bound is the global
    // minimum (strict: an equal-time overflow record could carry a smaller
    // seq). Likewise, a limit strictly before the bound rules the whole
    // overflow tier out of "due".
    if (overflow_live_ == 0 || (idx != kNilIdx && Rec(idx).time < overflow_lb_)) {
      if (idx == kNilIdx || Rec(idx).time > limit) {
        return false;
      }
      Record& r = Rec(idx);
      buckets_[cur_bucket_] = r.next;  // FindEarliest left it as the current head
      if (r.next == kNilIdx) {
        tails_[cur_bucket_] = kNilIdx;
      }
      --cal_count_;
      --ring_live_;
      *t = r.time;
      *fn = std::move(r.fn);
      FreeSlot(idx);
      if (nbuckets_ > kMinBuckets && cal_count_ < nbuckets_ / 4) {
        Rehash(nbuckets_ / 2, /*sample_live=*/false);
      }
      NotePop(*t);
      return true;
    }
    if (limit < overflow_lb_ && (idx == kNilIdx || Rec(idx).time > limit)) {
      return false;  // nothing due in either tier — the O(1) idle path
    }
    // The overflow tier may hold the minimum (or something due): fold it
    // into the ring and re-arbitrate. Terminates — migration empties the
    // overflow, so the next iteration takes a branch above.
    MigrateOverflow();
  }
}

void EventQueue::NotePop(TimeNs t) {
  // Equal-time pops (FIFO batches) say nothing about spacing: skip them, so a
  // batch-heavy stream does not collapse the width toward zero. A pop behind
  // the previous one (an insert behind the clock) just restarts the gap.
  if (t > last_pop_time_) {
    pop_gaps_[pop_gap_count_++] = t - last_pop_time_;
  }
  last_pop_time_ = t;
  if (pop_gap_count_ < kGapWindow) {
    return;
  }
  pop_gap_count_ = 0;
  // Brown's estimate: mean separation, recomputed without the separations
  // over twice that mean, so one idle hole in the window does not set the
  // width. At least the smallest gap survives the trim.
  double mean = 0;
  for (TimeNs gap : pop_gaps_) {
    mean += static_cast<double>(gap);
  }
  mean /= static_cast<double>(kGapWindow);
  double kept_sum = 0;
  size_t kept = 0;
  for (TimeNs gap : pop_gaps_) {
    if (static_cast<double>(gap) <= 2 * mean) {
      kept_sum += static_cast<double>(gap);
      ++kept;
    }
  }
  dequeue_width_ = static_cast<TimeNs>(std::clamp(3 * kept_sum / static_cast<double>(kept), 1.0,
                                                   static_cast<double>(kMaxWidth)));
  if (OffWidth(dequeue_width_)) {
    Rehash(nbuckets_, /*sample_live=*/false);
  }
}

std::vector<uint32_t> EventQueue::SortedLive() const {
  std::vector<uint32_t> live;
  live.reserve(ring_live_);
  for (size_t b = 0; b < nbuckets_; ++b) {
    for (uint32_t idx = buckets_[b]; idx != kNilIdx; idx = Rec(idx).next) {
      if (Rec(idx).state == SlotState::kScheduled) {
        live.push_back(idx);
      }
    }
  }
  std::sort(live.begin(), live.end(),
            [this](uint32_t a, uint32_t b) { return Earlier(Rec(a), Rec(b)); });
  return live;
}

void EventQueue::Rehash(size_t new_nbuckets, bool sample_live, std::vector<uint32_t>* extra,
                        TimeNs width) {
  // Drain every chain, dropping tombstones for good.
  std::vector<uint32_t> live;
  live.reserve(ring_live_);
  for (size_t b = 0; b < nbuckets_; ++b) {
    uint32_t idx = buckets_[b];
    while (idx != kNilIdx) {
      uint32_t next = Rec(idx).next;
      if (Rec(idx).state == SlotState::kScheduled) {
        live.push_back(idx);
      } else {
        FreeSlot(idx);
      }
      idx = next;
    }
    buckets_[b] = kNilIdx;
  }
  if (extra != nullptr) {  // records joining the ring (overflow migration)
    live.insert(live.end(), extra->begin(), extra->end());
  }
  std::sort(live.begin(), live.end(),
            [this](uint32_t a, uint32_t b) { return Earlier(Rec(a), Rec(b)); });
  cal_count_ = live.size();
  DS_CHECK_EQ(cal_count_, ring_live_);
  nbuckets_ = new_nbuckets;
  mask_ = nbuckets_ - 1;
  if (width == 0) {
    width = sample_live || dequeue_width_ == 0 ? SampleWidth(live) : dequeue_width_;
  }
  width_ = width;
  settled_width_ = 0;
  buckets_.assign(nbuckets_, kNilIdx);
  tails_.assign(nbuckets_, kNilIdx);
  // Distribute in ascending (time, seq): appending at per-bucket tails keeps
  // every chain sorted without a per-record scan.
  for (uint32_t idx : live) {
    Record& r = Rec(idx);
    size_t b = BucketOf(r.time);
    r.next = kNilIdx;
    if (tails_[b] == kNilIdx) {
      buckets_[b] = idx;
    } else {
      Rec(tails_[b]).next = idx;
    }
    tails_[b] = idx;
  }
  if (live.empty()) {
    cur_bucket_ = 0;
    bucket_top_ = width_;
  } else {
    RewindWindowTo(Rec(live.front()).time);
  }
}

TimeNs EventQueue::SampleWidth(const std::vector<uint32_t>& sorted_live) const {
  if (sorted_live.size() < 2) {
    return width_;
  }
  // Up to 255 evenly-strided local gap samples; Brown's rule of thumb
  // (width ~ 3x the typical gap) keeps bucket occupancy near 1/3. The
  // *median* sample sets the width, not the mean: a mean is poisoned by a
  // single large hole — e.g. a dense batch of deadline timers 1s ahead of a
  // quiet window would get a ~second-spanning width and chain the whole
  // batch into one bucket — while the median tracks the dense region where
  // inserts and extractions actually concentrate.
  size_t n = sorted_live.size();
  size_t stride = std::max<size_t>(1, (n - 1) / 255);
  std::vector<TimeNs> gaps;
  gaps.reserve((n - 1) / stride + 1);
  for (size_t i = stride; i < n; i += stride) {
    gaps.push_back((Rec(sorted_live[i]).time - Rec(sorted_live[i - stride]).time) /
                   static_cast<TimeNs>(stride));
  }
  std::nth_element(gaps.begin(), gaps.begin() + static_cast<ptrdiff_t>(gaps.size() / 2),
                   gaps.end());
  TimeNs w = gaps[gaps.size() / 2] * 3;
  if (w < 1) {
    w = 1;  // equal-time-heavy populations: tail append keeps chains O(1)
  }
  if (w > kMaxWidth) {
    w = kMaxWidth;
  }
  return w;
}

}  // namespace deepserve::sim
