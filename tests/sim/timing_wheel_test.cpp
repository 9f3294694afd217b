// Wheel/heap boundary behavior: the timing wheel is a staging structure in
// front of the event queue's heap, and these tests pin the edges where an
// entry crosses between the two — same-tick ordering across a bucket
// cascade, cancel/reschedule slot reuse for parked entries, daemon events
// at an exact runUntil() deadline, and SimTime::max() sentinels that must
// bypass the wheel entirely.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_wheel.hpp"
#include "sim/units.hpp"

namespace {

using scidmz::sim::Duration;
using scidmz::sim::EventId;
using scidmz::sim::EventQueue;
using scidmz::sim::SimTime;
using scidmz::sim::Simulator;
using scidmz::sim::TimingWheel;

SimTime at(std::int64_t ns) { return SimTime::fromNs(ns); }

struct WheelEntry {
  SimTime at;
  int tag = 0;
};

using Wheel = TimingWheel<WheelEntry>;

TEST(TimingWheel, RejectsNearNowAndBeyondHorizon) {
  Wheel w;
  // Due / near-now: must stay in the heap so the current bucket never holds
  // a future entry.
  EXPECT_FALSE(w.park({at(0), 1}));
  EXPECT_FALSE(w.park({at(Wheel::kMinParkAheadNs - 1), 2}));
  // Beyond the ~2^42 ns span: heap overflow path.
  EXPECT_FALSE(w.park({SimTime::max(), 3}));
  EXPECT_TRUE(w.empty());
  // Mid-range parks, and the horizon lower-bounds the parked entry.
  EXPECT_TRUE(w.park({at(50'000), 4}));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_LE(w.horizonStartNs(), 50'000);
}

TEST(TimingWheel, CascadePreservesEntriesAcrossLevels) {
  Wheel w;
  // One entry per level: level 0 (~50 us), level 1 (~1 ms), level 2
  // (~100 ms), level 3 (~30 s). Each must come back out unchanged no
  // matter how many redistributions it rides through.
  const std::int64_t times[] = {50'000, 1'000'000, 100'000'000, 30'000'000'000};
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(w.park({at(times[i]), i}));
  std::vector<std::int64_t> due;
  while (!w.empty()) {
    w.cascadeEarliest([&](const WheelEntry& e) { due.push_back(e.at.ns()); });
  }
  ASSERT_EQ(due.size(), 4u);
  // cascadeEarliest drains earliest-bucket-first, so times come out sorted.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(due[static_cast<std::size_t>(i)], times[i]);
}

// An unaligned base must not let a delta just under a level's span wrap
// into the bucket congruent with the base's own index: that bucket's start
// would resolve *behind* the base and a cascade would regress it. park()
// promotes such entries a level (or rejects at the top level), so the
// horizon never dips below the base and the base is monotone.
TEST(TimingWheel, UnalignedBaseFullRevolutionPromotesInsteadOfWrapping) {
  Wheel w;
  w.advanceBase(1'000);  // not a multiple of any bucket width
  // (262'144 >> 10) == (1'000 >> 10) + 256: a full level-0 revolution
  // ahead even though the delta is under level 0's span.
  EXPECT_TRUE(w.park({at(262'144), 1}));
  EXPECT_GE(w.horizonStartNs(), w.baseNs());
  // The same wrap at the top level has nowhere to promote to: heap.
  EXPECT_FALSE(w.park({at(std::int64_t{1} << 42), 2}));

  std::vector<std::int64_t> due;
  std::int64_t prev_base = w.baseNs();
  while (!w.empty()) {
    w.cascadeEarliest([&](const WheelEntry& e) { due.push_back(e.at.ns()); });
    EXPECT_GE(w.baseNs(), prev_base);  // base never regresses
    prev_base = w.baseNs();
  }
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 262'144);
}

TEST(TimingWheel, AdvanceBaseOnlyMovesAnEmptyWheel) {
  Wheel w;
  w.advanceBase(1'000'000);
  EXPECT_EQ(w.baseNs(), 1'000'000);
  EXPECT_TRUE(w.park({at(2'000'000), 1}));
  w.advanceBase(5'000'000);  // non-empty: must not jump past a parked entry
  EXPECT_EQ(w.baseNs(), 1'000'000);
  // Near-now relative to the advanced base is rejected even though the
  // absolute time is large.
  EXPECT_FALSE(w.park({at(1'000'000 + Wheel::kMinParkAheadNs - 1), 2}));
}

// --- EventQueue integration: the satellite edge cases -----------------------

// Events at the exact same tick must pop in schedule order even when some
// parked in a wheel bucket and others went straight to the heap (scheduled
// after the base had advanced to within kMinParkAheadNs of the tick).
TEST(EventQueueWheel, SameTickOrderingAcrossCascadeBoundary) {
  EventQueue q;
  std::vector<int> fired;
  const auto rec = [&fired](int i) { return [&fired, i] { fired.push_back(i); }; };

  const std::int64_t tick = 1'000'000;
  // Far ahead of base 0: these park.
  for (int i = 0; i < 8; ++i) q.schedule(at(tick), rec(i));
  EXPECT_GT(q.parkedCount(), 0u);
  // An earlier event one bucket before the tick; popping it advances the
  // wheel base to within kMinParkAheadNs of `tick`.
  q.schedule(at(tick - 1'500), rec(-1));
  auto early = q.pop();
  early.cb();
  // Now the same tick is near-now: these go to the heap.
  const std::size_t parked_before = q.parkedCount();
  for (int i = 8; i < 16; ++i) q.schedule(at(tick), rec(i));
  EXPECT_EQ(q.parkedCount(), parked_before);

  while (!q.empty()) {
    auto ev = q.pop();
    EXPECT_EQ(ev.at, at(tick));
    ev.cb();
  }
  ASSERT_EQ(fired.size(), 17u);
  EXPECT_EQ(fired.front(), -1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i) + 1], i);
}

// Regression for the exact-tie cascade rule: when the tick is *bucket
// aligned* (here 2^20 ns, a level-1 bucket start), parked entries have
// at == bucket start, so heap_min == horizonStartNs() exactly. ensureFront()
// must treat that tie as "cascade", not "heap front wins": the bucket holds
// the earlier-scheduled (smaller-seq) half of the tick, and only pushing it
// into the heap lets the (time, seq) tie-break order the two halves.
TEST(EventQueueWheel, SameTickOrderingAtBucketAlignedBoundary) {
  EventQueue q;
  std::vector<int> fired;
  const auto rec = [&fired](int i) { return [&fired, i] { fired.push_back(i); }; };

  const std::int64_t tick = 1'048'576;  // 2^20: a bucket start at levels 0 and 1
  // Far ahead of base 0: these park, with at exactly equal to the bucket start.
  for (int i = 0; i < 4; ++i) q.schedule(at(tick), rec(i));
  EXPECT_GT(q.parkedCount(), 0u);
  // Popping an earlier event advances the wheel base to within
  // kMinParkAheadNs of the tick.
  q.schedule(at(tick - 1'500), rec(-1));
  auto early = q.pop();
  early.cb();
  // The same tick is now near-now: these go straight to the heap with
  // larger sequence numbers.
  const std::size_t parked_before = q.parkedCount();
  for (int i = 4; i < 8; ++i) q.schedule(at(tick), rec(i));
  EXPECT_EQ(q.parkedCount(), parked_before);

  while (!q.empty()) {
    auto ev = q.pop();
    EXPECT_EQ(ev.at, at(tick));
    ev.cb();
  }
  ASSERT_EQ(fired.size(), 9u);
  EXPECT_EQ(fired.front(), -1);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i) + 1], i);
}

// Cancelling a parked event and rescheduling must not let the stale handle
// reach whoever reuses the slot, and the tombstone must be reclaimed when
// its bucket cascades.
TEST(EventQueueWheel, CancelThenRescheduleParkedEntry) {
  EventQueue q;
  int fired = 0;
  const EventId stale = q.schedule(at(500'000), [&fired] { fired += 100; });
  EXPECT_EQ(q.parkedCount(), 1u);
  q.cancel(stale);
  EXPECT_EQ(q.tombstoneCount(), 1u);

  const EventId live = q.schedule(at(600'000), [&fired] { fired += 1; });
  q.cancel(stale);  // stale: no-op, must not hit the new event
  EXPECT_TRUE(live.valid());

  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 1);
  // The cancelled entry was reclaimed when its bucket cascaded.
  EXPECT_EQ(q.tombstoneCount(), 0u);
  EXPECT_EQ(q.parkedCount(), 0u);
}

// Daemon events due exactly at the runUntil() deadline fire, and the
// daemon accounting survives the trip through a wheel bucket.
TEST(EventQueueWheel, DaemonAtExactRunUntilDeadline) {
  Simulator sim;
  int fired = 0;
  sim.scheduleDaemon(Duration::microseconds(50), [&fired] { ++fired; });
  EXPECT_EQ(sim.pendingDaemonCount(), 1u);
  sim.runUntil(at(50'000));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), at(50'000));
  EXPECT_EQ(sim.pendingDaemonCount(), 0u);

  // A daemon beyond the deadline stays pending and does not advance time
  // past the deadline.
  sim.scheduleDaemon(Duration::seconds(1), [&fired] { ++fired; });
  sim.runFor(Duration::microseconds(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pendingDaemonCount(), 1u);
  // run() with only daemons pending returns immediately.
  sim.run();
  EXPECT_EQ(fired, 1);
}

// SimTime::max() sentinels bypass the wheel (they are beyond any horizon)
// and sort after every real event; nextTime() on an empty queue is the same
// sentinel and must not be confused with a scheduled max-time event.
TEST(EventQueueWheel, MaxTimeSentinelsStayInHeap) {
  EventQueue q;
  EXPECT_EQ(q.nextTime(), SimTime::max());

  std::vector<int> fired;
  q.schedule(SimTime::max(), [&fired] { fired.push_back(2); });
  EXPECT_EQ(q.parkedCount(), 0u);  // beyond horizon: heap, not wheel
  EXPECT_EQ(q.nextTime(), SimTime::max());
  EXPECT_FALSE(q.empty());

  q.schedule(at(10'000'000), [&fired] { fired.push_back(1); });
  EXPECT_EQ(q.nextTime(), at(10'000'000));
  while (!q.empty()) q.pop().cb();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 2);

  // Cancelling a max-sentinel works like any other handle.
  const EventId id = q.schedule(SimTime::max(), [] {});
  q.cancel(id);
  EXPECT_TRUE(q.empty());
}

// Satellite regression test: cancelling a dense periodic schedule whose
// events are parked in wheel buckets must reclaim the tombstones via
// compact() — they count toward the tombstones_ > live_ trigger even though
// none of them ever surfaces at the heap front.
TEST(EventQueueWheel, CompactReclaimsCancelledParkedSchedule) {
  EventQueue q;
  std::vector<EventId> ids;
  // A dense periodic schedule, all far enough out to park.
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(at(100'000 + i * 10'000), [] {}));
  }
  EXPECT_EQ(q.parkedCount(), 1000u);

  for (const EventId id : ids) q.cancel(id);
  EXPECT_TRUE(q.empty());
  // The tombstones_ > live_ trigger fired during the cancel loop; at most
  // one sub-threshold batch (<= 64 entries) may still be parked.
  EXPECT_LE(q.tombstoneCount(), 64u);
  EXPECT_LE(q.parkedCount(), 64u);
  EXPECT_EQ(q.parkedCount(), q.tombstoneCount());

  // The queue is fully usable afterwards and the leftovers are reclaimed
  // as their buckets cascade.
  int fired = 0;
  q.schedule(at(20'000'000), [&fired] { ++fired; });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.tombstoneCount(), 0u);
  EXPECT_EQ(q.parkedCount(), 0u);
}

// compact() walks only the buckets the occupancy bitmap marks. Tombstones
// parked in sparse buckets on every level must all be reclaimed by it, and
// the survivors parked beside them must still pop in (time, seq) order.
TEST(EventQueueWheel, CompactReclaimsSparseTombstonesOnEveryLevel) {
  EventQueue q;
  // Per level: (first time, stride) spreading entries one per bucket over
  // a sparse stretch of that level's span.
  const std::int64_t first[] = {10'000, 1'000'000, 100'000'000, 20'000'000'000};
  const std::int64_t stride[] = {14'000, 3'500'000, 1'000'000'000, 200'000'000'000};
  std::vector<EventId> victims;
  std::vector<std::int64_t> survivors;
  std::vector<std::int64_t> popped;
  for (int level = 0; level < 4; ++level) {
    for (int i = 0; i < 18; ++i) {
      const std::int64_t t = first[level] + i * stride[level];
      if (i % 9 == 4) {
        survivors.push_back(t);
        q.schedule(at(t), [&popped, t] { popped.push_back(t); });
      } else {
        victims.push_back(q.schedule(at(t), [] { ADD_FAILURE() << "cancelled event ran"; }));
      }
    }
  }
  ASSERT_EQ(q.parkedCount(), 72u);
  // 64 victims: cancelling the 65th would push tombstones past both the
  // 64-entry floor and the live count. Add one more victim so the last
  // cancel is the one that triggers compact().
  victims.push_back(q.schedule(at(30'000'000'000), [] { ADD_FAILURE() << "cancelled event ran"; }));
  ASSERT_EQ(victims.size(), 65u);
  for (const EventId id : victims) q.cancel(id);
  EXPECT_EQ(q.tombstoneCount(), 0u);
  EXPECT_EQ(q.parkedCount(), survivors.size());
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(popped, survivors);  // scheduled in time order, so pop order is the same
}

}  // namespace
