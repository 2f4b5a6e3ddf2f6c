// Direct tests for the slab-allocated calendar event queue, below the
// Simulator API: handle generation checking, bucket grow/shrink rehashes,
// window rewinds for inserts behind the scan position, and exact
// (time, insertion-order) extraction parity against a naive reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/small_fn.h"
#include "common/time_units.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace deepserve::sim {
namespace {

using common::SmallFn;

// Pops and invokes every remaining event; returns the number popped. Markers
// accumulate in the vectors the callbacks captured at insertion.
size_t Drain(EventQueue& q) {
  size_t n = 0;
  TimeNs t = 0;
  SmallFn fn;
  while (q.PopIfDue(kTimeNever, &t, &fn)) {
    fn();
    fn.Reset();
    ++n;
  }
  return n;
}

// Inserts an event whose callback appends `marker` to `*out`.
EventQueue::Handle InsertMarked(EventQueue& q, TimeNs t, std::vector<uint64_t>* out,
                                uint64_t marker) {
  return q.Insert(t, [out, marker] { out->push_back(marker); });
}

TEST(EventQueueTest, PopsInTimeThenFifoOrder) {
  EventQueue q;
  std::vector<uint64_t> fired;
  // Shuffled times with duplicates; marker = insertion order.
  const TimeNs times[] = {50, 10, 50, 30, 10, 50, 20, 10};
  for (uint64_t i = 0; i < 8; ++i) {
    InsertMarked(q, times[i], &fired, i);
  }
  EXPECT_EQ(q.live(), 8u);
  TimeNs t = 0;
  SmallFn fn;
  TimeNs prev = 0;
  while (q.PopIfDue(kTimeNever, &t, &fn)) {
    EXPECT_GE(t, prev);
    prev = t;
    fn();
    fn.Reset();
  }
  // Time order, FIFO within each timestamp.
  EXPECT_EQ(fired, (std::vector<uint64_t>{1, 4, 7, 6, 3, 0, 2, 5}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PopIfDueRespectsLimit) {
  EventQueue q;
  std::vector<uint64_t> fired;
  InsertMarked(q, 10, &fired, 10);
  InsertMarked(q, 20, &fired, 20);
  TimeNs t = 0;
  SmallFn fn;
  ASSERT_TRUE(q.PopIfDue(15, &t, &fn));
  EXPECT_EQ(t, 10);
  fn.Reset();
  EXPECT_FALSE(q.PopIfDue(15, &t, &fn)) << "event at 20 is beyond the limit";
  EXPECT_EQ(q.live(), 1u);
  ASSERT_TRUE(q.PopIfDue(20, &t, &fn));
  EXPECT_EQ(t, 20);
}

TEST(EventQueueTest, HandlesAreGenerationCheckedAcrossSlotReuse) {
  EventQueue q;
  std::vector<uint64_t> fired;
  EventQueue::Handle a = InsertMarked(q, 5, &fired, 1);
  EXPECT_NE(a, EventQueue::kNilHandle);
  EXPECT_TRUE(q.Live(a));

  TimeNs t = 0;
  SmallFn fn;
  ASSERT_TRUE(q.PopIfDue(kTimeNever, &t, &fn));
  fn.Reset();
  EXPECT_FALSE(q.Live(a));
  EXPECT_FALSE(q.Cancel(a)) << "handle already fired";

  // The freed slot is recycled under a new generation: the old handle stays
  // dead and must not alias the new occupant.
  EventQueue::Handle b = InsertMarked(q, 7, &fired, 2);
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.Live(a));
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_TRUE(q.Live(b));
  EXPECT_TRUE(q.Cancel(b));
  EXPECT_FALSE(q.Cancel(b)) << "double cancel";
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelStormLeavesSurvivorsInOrder) {
  EventQueue q;
  std::vector<uint64_t> fired;
  std::vector<EventQueue::Handle> handles;
  for (uint64_t i = 0; i < 1000; ++i) {
    handles.push_back(InsertMarked(q, static_cast<TimeNs>((i * 37) % 500), &fired, i));
  }
  // Tombstone ~90%: everything except multiples of 10.
  for (uint64_t i = 0; i < 1000; ++i) {
    if (i % 10 != 0) {
      EXPECT_TRUE(q.Cancel(handles[i]));
    }
  }
  EXPECT_EQ(q.live(), 100u);
  EXPECT_EQ(Drain(q), 100u);
  // Survivors extracted in (time, insertion-order): rebuild expectation.
  std::map<std::pair<TimeNs, uint64_t>, uint64_t> expected;
  for (uint64_t i = 0; i < 1000; i += 10) {
    expected[{static_cast<TimeNs>((i * 37) % 500), i}] = i;
  }
  ASSERT_EQ(fired.size(), expected.size());
  size_t pos = 0;
  for (const auto& [key, marker] : expected) {
    EXPECT_EQ(fired[pos++], marker);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, InsertBehindScanWindowStillPopsFirst) {
  EventQueue q;
  std::vector<uint64_t> fired;
  // A single far-future event forces the dequeue scan to jump its window far
  // forward when probed...
  InsertMarked(q, SToNs(1000), &fired, 1);
  TimeNs t = 0;
  SmallFn fn;
  EXPECT_FALSE(q.PopIfDue(100, &t, &fn));
  // ...so a subsequent near-term insert lands behind the window floor and
  // must rewind the scan rather than be orphaned for a full ring lap.
  InsertMarked(q, 10, &fired, 2);
  ASSERT_TRUE(q.PopIfDue(100, &t, &fn));
  EXPECT_EQ(t, 10);
  fn();
  fn.Reset();
  ASSERT_TRUE(q.PopIfDue(kTimeNever, &t, &fn));
  EXPECT_EQ(t, SToNs(1000));
  fn();
  EXPECT_EQ(fired, (std::vector<uint64_t>{2, 1}));
}

TEST(EventQueueTest, SparseAndClusteredTimesInterleave) {
  EventQueue q;
  std::vector<uint64_t> fired;
  InsertMarked(q, SToNs(3600), &fired, 0);  // an hour out
  InsertMarked(q, 5, &fired, 1);
  InsertMarked(q, SToNs(1), &fired, 2);
  InsertMarked(q, 6, &fired, 3);
  InsertMarked(q, SToNs(3600), &fired, 4);  // equal-time FIFO at the far end
  Drain(q);
  EXPECT_EQ(fired, (std::vector<uint64_t>{1, 3, 2, 0, 4}));
}

TEST(EventQueueTest, GrowAndShrinkRehashPreservesExactOrder) {
  EventQueue q;
  const size_t initial_buckets = q.bucket_count();
  std::vector<uint64_t> fired;
  std::map<std::pair<TimeNs, uint64_t>, uint64_t> model;  // (time, ord) -> marker
  uint64_t state = 7;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  // Enough inserts to force several doublings (grow triggers past 2x bucket
  // occupancy) with deliberately clumpy times so buckets collide.
  for (uint64_t i = 0; i < 20000; ++i) {
    TimeNs t = static_cast<TimeNs>(next() % 1000 + (next() % 8) * 100000);
    InsertMarked(q, t, &fired, i);
    model[{t, i}] = i;
  }
  const size_t peak_buckets = q.bucket_count();
  EXPECT_GT(peak_buckets, initial_buckets) << "population should grow the ring";
  // Drain almost all of it — crossing the 1/4-occupancy threshold shrinks
  // the ring back down mid-extraction. (Far clumps ride the overflow tier
  // and fold in along the way, so the ring must fall well below peak once
  // only a sliver of the population remains.)
  TimeNs t = 0;
  SmallFn fn;
  TimeNs prev = 0;
  for (int i = 0; i < 19900; ++i) {
    ASSERT_TRUE(q.PopIfDue(kTimeNever, &t, &fn));
    ASSERT_GE(t, prev);
    prev = t;
    fn();
    fn.Reset();
  }
  EXPECT_LT(q.bucket_count(), peak_buckets) << "drain should shrink the ring";
  // Refill beyond the survivors, then drain fully.
  for (uint64_t i = 20000; i < 21000; ++i) {
    TimeNs ti = prev + static_cast<TimeNs>(next() % 5000);
    InsertMarked(q, ti, &fired, i);
    model[{ti, i}] = i;
  }
  Drain(q);
  EXPECT_TRUE(q.empty());
  ASSERT_EQ(fired.size(), model.size());
  size_t pos = 0;
  for (const auto& [key, marker] : model) {
    ASSERT_EQ(fired[pos], marker) << "extraction diverged at position " << pos;
    ++pos;
  }
}

// Randomized parity: 50k mixed insert/cancel/pop operations against a naive
// ordered-map reference. Checks exact extraction order, live counts, and
// Cancel()/Live() agreement with the model at every step.
// Far events (beyond one ring-year of the dequeue window) take the overflow
// tier at insert and must migrate back into the ring in exact (time, seq)
// order once the simulation reaches them — including FIFO ties straddling
// the tiers.
TEST(EventQueueTest, FarEventsMigrateInExactOrder) {
  EventQueue q;
  std::vector<uint64_t> fired;
  // Near cluster: microsecond-scale. Far cluster: seconds out, interleaved
  // insertion so seq ordering crosses the tier boundary.
  InsertMarked(q, 100, &fired, 0);
  InsertMarked(q, SToNs(5), &fired, 1);
  InsertMarked(q, 200, &fired, 2);
  InsertMarked(q, SToNs(5), &fired, 3);  // same far time, later seq
  InsertMarked(q, SToNs(2), &fired, 4);
  EXPECT_GT(q.overflow_size(), 0u) << "second-scale events should take the overflow tier";
  EXPECT_EQ(Drain(q), 5u);
  EXPECT_EQ(fired, (std::vector<uint64_t>{0, 2, 4, 1, 3}));
  EXPECT_EQ(q.overflow_size(), 0u);
}

// "Nothing due before t" must not depend on far-future timers: a limit-
// bounded pop below the overflow bound returns false without disturbing
// them, and they still fire later.
TEST(EventQueueTest, LimitBelowOverflowBoundLeavesFarTimersParked) {
  EventQueue q;
  std::vector<uint64_t> fired;
  for (uint64_t i = 0; i < 100; ++i) {
    InsertMarked(q, SToNs(1) + static_cast<TimeNs>(i), &fired, i);
  }
  TimeNs t = 0;
  SmallFn fn;
  EXPECT_FALSE(q.PopIfDue(MsToNs(1), &t, &fn));
  EXPECT_GT(q.overflow_size(), 0u) << "a far-only probe must not force migration";
  EXPECT_EQ(Drain(q), 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(fired[i], i);
  }
}

// The deadline-guard pattern: batches of far timers, 90% cancelled long
// before due. Cancellations must compact out of the overflow tier (never
// touching the ring) and the survivors fire in exact order.
TEST(EventQueueTest, MassCancelledFarTimersCompactAndSurvivorsFire) {
  EventQueue q;
  std::vector<uint64_t> fired;
  std::map<std::pair<TimeNs, uint64_t>, uint64_t> expected;
  uint64_t state = 99;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<EventQueue::Handle> handles;
  std::vector<TimeNs> times;
  for (uint64_t i = 0; i < 5000; ++i) {
    TimeNs t = SToNs(1) + static_cast<TimeNs>(next() % 1000000);
    handles.push_back(InsertMarked(q, t, &fired, i));
    times.push_back(t);
    expected[{t, i}] = i;
  }
  size_t cancelled = 0;
  for (uint64_t i = 0; i < 5000; ++i) {
    if (i % 10 != 9) {
      ASSERT_TRUE(q.Cancel(handles[i]));
      expected.erase({times[i], i});
      ++cancelled;
    }
  }
  EXPECT_EQ(q.live(), 5000u - cancelled);
  EXPECT_EQ(Drain(q), 5000u - cancelled);
  ASSERT_EQ(fired.size(), expected.size());
  size_t pos = 0;
  for (const auto& [key, marker] : expected) {
    EXPECT_EQ(fired[pos], marker) << "survivor order diverged at " << pos;
    ++pos;
  }
}

TEST(EventQueueTest, RandomOpsMatchReferenceModel) {
  EventQueue q;
  struct ModelEvent {
    EventQueue::Handle handle;
    uint64_t marker;
  };
  std::map<std::pair<TimeNs, uint64_t>, ModelEvent> model;  // (time, ord) -> event
  std::map<EventQueue::Handle, std::pair<TimeNs, uint64_t>> by_handle;
  std::vector<EventQueue::Handle> all_handles;
  std::vector<uint64_t> fired;
  uint64_t ord = 0;
  TimeNs now = 0;
  uint64_t state = 424242;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int op = 0; op < 50000; ++op) {
    uint64_t r = next() % 100;
    if (r < 55 || all_handles.empty()) {
      // Mixed near/far horizon exercises both the year scan and direct search.
      TimeNs horizon = (next() % 20 == 0) ? SToNs(10) : TimeNs{20000};
      TimeNs t = now + static_cast<TimeNs>(next() % static_cast<uint64_t>(horizon));
      uint64_t o = ord++;
      EventQueue::Handle h = InsertMarked(q, t, &fired, o);
      model[{t, o}] = ModelEvent{h, o};
      by_handle[h] = {t, o};
      all_handles.push_back(h);
    } else if (r < 80) {
      EventQueue::Handle h = all_handles[next() % all_handles.size()];
      auto it = by_handle.find(h);
      bool was_live = it != by_handle.end();
      ASSERT_EQ(q.Live(h), was_live);
      ASSERT_EQ(q.Cancel(h), was_live);
      if (was_live) {
        model.erase(it->second);
        by_handle.erase(it);
      }
    } else {
      TimeNs t = 0;
      SmallFn fn;
      bool popped = q.PopIfDue(kTimeNever, &t, &fn);
      ASSERT_EQ(popped, !model.empty());
      if (popped) {
        auto it = model.begin();
        ASSERT_EQ(t, it->first.first);
        size_t before = fired.size();
        fn();
        fn.Reset();
        ASSERT_EQ(fired.size(), before + 1);
        ASSERT_EQ(fired.back(), it->second.marker) << "popped a non-minimum event";
        ASSERT_GE(t, now);
        now = t;
        by_handle.erase(it->second.handle);
        model.erase(it);
      }
    }
    ASSERT_EQ(q.live(), model.size()) << "after op " << op;
  }
  Drain(q);
  EXPECT_TRUE(q.empty());
}

// The simulator's live population is bimodal: one self-rescheduling step
// event per engine, milliseconds ahead, over thousands of pre-scheduled
// arrivals spread across the whole horizon. A bucket width sized to the
// sparse arrivals chains every step event into one bucket and each re-insert
// walks half of them; a width sized to the dequeue stream keeps the walk
// O(1). Each case replays that shape directly on the queue against an
// ordered-map reference, under three stream patterns:
//   kSpread      distinct periods and phases;
//   kIdleHoles   every stream pauses for 400 ms after each 100 ms of activity,
//                so the dequeue stream has long holes (only arrivals pop);
//   kEqualTime   one shared period and phase: pops come in equal-time batches;
//   kBurst       kSpread plus, mid-run, 2,000 one-shot timers inserted in
//                random order within 1 ms, 1 s ahead: they chain into a few
//                buckets and drive the chain-walk trigger, whose resample
//                (dominated by the arrivals) confirms the current width, so
//                the respread must follow the dense chain's own gaps. The
//                ring must not grow for it.
enum class StreamPattern { kSpread, kIdleHoles, kEqualTime, kBurst };

struct BimodalCase {
  int streams;
  StreamPattern pattern;
};

class EventQueueBimodalTest : public ::testing::TestWithParam<BimodalCase> {};

TEST_P(EventQueueBimodalTest, WalkPerInsertStaysBoundedAndOrderIsExact) {
  const BimodalCase c = GetParam();
  constexpr uint64_t kArrivals = 10000;
  constexpr uint64_t kArrivalMarker = uint64_t{1} << 32;  // markers below are stream ids
  constexpr int kPops = 100000;
  constexpr TimeNs kActive = MsToNs(100);
  constexpr TimeNs kCycle = MsToNs(500);

  EventQueue q;
  std::vector<uint64_t> fired;
  std::map<std::pair<TimeNs, uint64_t>, uint64_t> model;  // (time, ord) -> marker
  uint64_t ord = 0;
  auto insert = [&](TimeNs t, uint64_t marker) {
    InsertMarked(q, t, &fired, marker);
    model[{t, ord++}] = marker;
  };
  uint64_t state = 2024;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (uint64_t i = 0; i < kArrivals; ++i) {
    TimeNs t = MsToNs(1) + static_cast<TimeNs>(i) * MsToNs(125) +
               static_cast<TimeNs>(next() % static_cast<uint64_t>(MsToNs(50)));
    insert(t, kArrivalMarker + i);
  }
  const bool equal_time = c.pattern == StreamPattern::kEqualTime;
  std::vector<DurationNs> period(static_cast<size_t>(c.streams));
  for (size_t s = 0; s < period.size(); ++s) {
    period[s] = equal_time ? MsToNs(14)
                           : MsToNs(10) + static_cast<DurationNs>(
                                              (s * 2654435761u) % static_cast<uint64_t>(MsToNs(8)));
    TimeNs first = MsToNs(2) + (equal_time ? 0 : static_cast<TimeNs>(s * 7919) % period[s]);
    insert(first, s);
  }
  // The ring is sized by occupancy alone: a degenerate walk never grows it.
  size_t max_buckets = 0;
  size_t max_live = 0;
  // Folds a time that lands in an idle stretch onto the next active one,
  // keeping the stream's phase.
  auto skip_idle = [&](TimeNs t) {
    TimeNs offset = t % kCycle;
    return offset < kActive ? t : t - offset + kCycle + (offset - kActive);
  };

  const uint64_t setup_inserts = q.inserts();
  const uint64_t setup_walked = q.links_walked();
  TimeNs t = 0;
  SmallFn fn;
  for (int pop = 0; pop < kPops; ++pop) {
    ASSERT_TRUE(q.PopIfDue(kTimeNever, &t, &fn));
    fn();
    fn.Reset();
    auto head = model.begin();
    ASSERT_EQ(t, head->first.first) << "pop " << pop;
    ASSERT_EQ(fired.back(), head->second) << "popped a non-minimum event at pop " << pop;
    model.erase(head);
    if (c.pattern == StreamPattern::kBurst && pop == 1000) {
      for (uint64_t k = 0; k < 2000; ++k) {
        insert(t + SToNs(1) + static_cast<TimeNs>(next() % static_cast<uint64_t>(MsToNs(1))),
               2 * kArrivalMarker + k);
      }
    }
    max_buckets = std::max(max_buckets, q.bucket_count());
    max_live = std::max(max_live, q.live());
    const uint64_t marker = fired.back();
    if (marker < kArrivalMarker) {
      TimeNs again = t + period[marker];
      insert(c.pattern == StreamPattern::kIdleHoles ? skip_idle(again) : again, marker);
    }
  }
  ASSERT_EQ(q.live(), model.size());
  const double walk = static_cast<double>(q.links_walked() - setup_walked) /
                      static_cast<double>(q.inserts() - setup_inserts);
  EXPECT_LE(walk, 2.0) << c.streams << " streams: chain links walked per insert";
  EXPECT_LE(max_buckets, 2 * max_live) << c.streams << " streams: ring grew past occupancy";
}

INSTANTIATE_TEST_SUITE_P(
    Streams, EventQueueBimodalTest,
    ::testing::Values(BimodalCase{32, StreamPattern::kSpread},
                      BimodalCase{1024, StreamPattern::kSpread},
                      BimodalCase{32, StreamPattern::kIdleHoles},
                      BimodalCase{1024, StreamPattern::kIdleHoles},
                      BimodalCase{32, StreamPattern::kEqualTime},
                      BimodalCase{1024, StreamPattern::kEqualTime},
                      BimodalCase{32, StreamPattern::kBurst}),
    [](const ::testing::TestParamInfo<BimodalCase>& test) {
      const char* pattern = test.param.pattern == StreamPattern::kSpread      ? "Spread"
                            : test.param.pattern == StreamPattern::kIdleHoles ? "IdleHoles"
                            : test.param.pattern == StreamPattern::kEqualTime ? "EqualTime"
                                                                              : "Burst";
      return std::string(pattern) + std::to_string(test.param.streams);
    });

}  // namespace
}  // namespace deepserve::sim
