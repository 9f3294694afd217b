#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace scidmz::sim {
namespace {

using namespace scidmz::sim::literals;

SimTime at(std::int64_t ns) { return SimTime::fromNs(ns); }

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at(30), [&] { order.push_back(3); });
  q.schedule(at(10), [&] { order.push_back(1); });
  q.schedule(at(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFifoByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(at(100), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  q.schedule(at(1), [&] { ++fired; });
  const EventId id = q.schedule(at(2), [&] { fired += 100; });
  q.schedule(at(3), [&] { ++fired; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelTwiceAndCancelInvalidAreNoOps) {
  EventQueue q;
  const EventId id = q.schedule(at(1), [] {});
  q.cancel(id);
  q.cancel(id);
  q.cancel(EventId{});
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(at(5), [] {});
  q.schedule(at(9), [] {});
  q.cancel(early);
  EXPECT_EQ(q.nextTime(), at(9));
}

TEST(EventQueue, EmptyNextTimeIsMax) {
  EventQueue q;
  EXPECT_EQ(q.nextTime(), SimTime::max());
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.schedule(at(1), [] {});
  q.schedule(at(2), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

// The seed implementation remembered a cancelled id forever and decremented
// live_ even when the event had already fired, so empty() could report true
// while live events remained. A stale handle must now be a pure no-op.
TEST(EventQueue, CancelAfterFireKeepsAccounting) {
  EventQueue q;
  int fired = 0;
  const EventId first = q.schedule(at(1), [&] { ++fired; });
  q.schedule(at(2), [&] { ++fired; });
  q.pop().cb();        // fires the first event
  q.cancel(first);     // stale: must not touch the remaining event's accounting
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelTwiceDecrementsOnce) {
  EventQueue q;
  q.schedule(at(1), [] {});
  const EventId id = q.schedule(at(2), [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  q.cancel(id);  // second cancel of the same handle: no double decrement
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  q.pop();
  EXPECT_TRUE(q.empty());
}

// A handle for a fired event must not be able to kill an unrelated event
// that later reuses the same internal slot.
TEST(EventQueue, StaleHandleCannotCancelSlotReuser) {
  EventQueue q;
  const EventId old = q.schedule(at(1), [] {});
  q.pop();  // fires; the slot is recycled
  int fired = 0;
  q.schedule(at(2), [&] { ++fired; });
  q.cancel(old);  // generation mismatch: no-op
  ASSERT_FALSE(q.empty());
  q.pop().cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, TombstonesAreReclaimed) {
  EventQueue q;
  // Cancel far more than the compaction threshold; dead entries must not
  // accumulate without bound.
  for (int round = 0; round < 10; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i) ids.push_back(q.schedule(at(1000 + i), [] {}));
    for (const EventId id : ids) q.cancel(id);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_LE(q.tombstoneCount(), 128u);
  // The queue stays fully usable afterwards.
  int fired = 0;
  q.schedule(at(1), [&] { ++fired; });
  q.pop().cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelAfterClearIsNoOp) {
  EventQueue q;
  const EventId id = q.schedule(at(1), [] {});
  q.clear();
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  int fired = 0;
  q.schedule(at(2), [&] { ++fired; });
  EXPECT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_EQ(fired, 1);
}

// Captures larger than the inline buffer take the heap fallback; behaviour
// must be identical.
TEST(EventQueue, OversizedCapturesStillFire) {
  EventQueue q;
  std::array<std::uint64_t, 64> big{};  // 512 bytes, above the inline budget
  big[0] = 41;
  int result = 0;
  EventQueue::Callback cb{[big, &result] { result = static_cast<int>(big[0]) + 1; }};
  EXPECT_FALSE(cb.isInline());
  q.schedule(at(1), std::move(cb));
  q.pop().cb();
  EXPECT_EQ(result, 42);
}

// The data-path closures capture a `this` pointer plus a 16-byte pool
// handle; the SBO budget is sized so those stay inline (with headroom for
// an extra word or two of state).
TEST(EventQueue, HandleSizedCaptureStaysInline) {
  struct Capture {
    void* owner = nullptr;
    unsigned char handle[16] = {};  // net::PacketRef-shaped payload
    std::uint64_t extra = 0;
    void operator()() const {}
  };
  EventQueue::Callback cb{Capture{}};
  EXPECT_TRUE(cb.isInline());
}

// A Packet-by-value capture (~150 bytes) no longer fits — the zero-copy
// refactor shrank the inline budget from 192 to 64 bytes. Such captures
// fall back to the heap with identical call semantics.
TEST(EventQueue, PacketSizedCaptureFallsBackToHeap) {
  struct Capture {
    void* owner = nullptr;
    unsigned char bytes[144] = {};
    void operator()() const {}
  };
  EventQueue::Callback cb{Capture{}};
  EXPECT_FALSE(cb.isInline());
}

// --- Timers: the second heap, merged with the closure heap by (at, seq) ---

/// A timer that logs "T<id>" into a shared trace when it fires; `rearm`,
/// when set, runs inside the fire as a delay line's re-arm would.
struct Probe {
  Probe(std::vector<std::string>& log, int id) : log(log), id(id) {}
  Probe(const Probe&) = delete;  // the timer points at it
  Probe& operator=(const Probe&) = delete;
  static void fire(void* self) {
    auto* p = static_cast<Probe*>(self);
    // A popped entry left in the heap would fire forever: fail, not hang.
    if (p->log.size() > 100000) throw std::runtime_error("a timer keeps firing");
    p->log.push_back("T" + std::to_string(p->id));
    if (p->rearm) p->rearm();
  }
  std::vector<std::string>& log;
  int id;
  std::function<void()> rearm;
  Timer timer{this, &Probe::fire, "test.timer"};
};

/// Fire everything left in `q`, timers and closures, in pop order.
void drain(EventQueue& q) {
  while (!q.empty()) {
    SimTime when;
    if (Timer* t = q.popTimer(when)) {
      t->fire(t->owner);
    } else {
      q.pop().cb();
    }
  }
}

TEST(TimerHeap, TimerAndClosureAtOneTimeFireInSeqOrderWhicheverIsArmedFirst) {
  for (const bool timerKeyFirst : {true, false}) {
    for (const bool armTimerFirst : {true, false}) {
      EventQueue q;
      std::vector<std::string> log;
      Probe probe{log, 0};
      const std::uint64_t first = q.reserveSeq();
      const std::uint64_t second = q.reserveSeq();
      const std::uint64_t timerSeq = timerKeyFirst ? first : second;
      const std::uint64_t closureSeq = timerKeyFirst ? second : first;
      auto armClosure = [&] {
        q.restoreSchedule(at(40), closureSeq, [&log] { log.push_back("C"); });
      };
      if (armTimerFirst) {
        q.arm(probe.timer, at(40), timerSeq);
        armClosure();
      } else {
        armClosure();
        q.arm(probe.timer, at(40), timerSeq);
      }
      EXPECT_EQ(q.size(), 2u);
      EXPECT_EQ(q.nextTime(), at(40));
      drain(q);
      EXPECT_EQ(log, timerKeyFirst ? (std::vector<std::string>{"T0", "C"})
                                   : (std::vector<std::string>{"C", "T0"}))
          << "timer key first " << timerKeyFirst << ", timer armed first " << armTimerFirst;
      EXPECT_FALSE(probe.timer.armed());
    }
  }
}

TEST(TimerHeap, RekeysMidHeapDisarmsAndRefiresMatchASortedReference) {
  // 40 timers, about 22 armed at a time (three heap levels), under a seeded
  // mix of arms, earlier and later re-keys, disarms from anywhere in the
  // heap and pops, some of which re-arm the fired timer from inside its
  // fire. Due times collide often, so the seq tie-break decides many pops.
  // Every pop must be the reference's minimum.
  EventQueue q;
  std::vector<std::string> log;
  std::deque<Probe> probes;
  constexpr int kTimers = 40;
  for (int i = 0; i < kTimers; ++i) probes.emplace_back(log, i);
  std::map<int, std::pair<std::int64_t, std::uint64_t>> armed;  // id -> (at, seq)
  Rng rng{20130101};
  std::int64_t now = 0;
  auto arm = [&](int id, std::int64_t when) {
    const std::uint64_t seq = q.reserveSeq();
    q.arm(probes[static_cast<std::size_t>(id)].timer, at(when), seq);
    armed[id] = {when, seq};
  };
  std::size_t pops = 0, earlier = 0, later = 0, disarms = 0, armedSum = 0;
  constexpr int kSteps = 6000;
  for (int step = 0; step < kSteps; ++step) {
    const int id = static_cast<int>(rng.below(kTimers));
    Probe& p = probes[static_cast<std::size_t>(id)];
    const std::uint64_t op = rng.below(16);
    if (op < 8) {
      const std::int64_t when = now + static_cast<std::int64_t>(rng.below(6)) * 10;
      if (armed.count(id) != 0) ++(when < armed[id].first ? earlier : later);
      arm(id, when);
    } else if (op < 11) {
      if (armed.count(id) != 0) ++disarms;
      q.disarm(p.timer);
      armed.erase(id);
    } else if (!q.empty()) {
      const auto want = std::min_element(armed.begin(), armed.end(), [](auto& a, auto& b) {
        return a.second < b.second;
      });
      ASSERT_NE(want, armed.end());
      ASSERT_EQ(q.nextTime(), at(want->second.first));
      SimTime when;
      Timer* t = q.popTimer(when);
      ASSERT_NE(t, nullptr);
      ASSERT_EQ(t, &probes[static_cast<std::size_t>(want->first)].timer) << "step " << step;
      ASSERT_EQ(when, at(want->second.first));
      now = when.ns();
      const int fired = want->first;
      armed.erase(want);
      ++pops;
      if (op >= 13) arm(fired, now + static_cast<std::int64_t>(rng.below(4)) * 10);
    }
    ASSERT_EQ(q.size(), armed.size()) << "step " << step;
    armedSum += armed.size();
    for (int i = 0; i < kTimers; ++i) {
      ASSERT_EQ(probes[static_cast<std::size_t>(i)].timer.armed(), armed.count(i) != 0)
          << "timer " << i << " at step " << step;
    }
  }
  EXPECT_GT(pops, 500u);
  EXPECT_GT(earlier, 100u);
  EXPECT_GT(later, 100u);
  EXPECT_GT(disarms, 200u);
  EXPECT_GE(armedSum / kSteps, 17u);
  // Fire the rest and compare with the reference's (at, seq) order.
  std::vector<std::tuple<std::int64_t, std::uint64_t, int>> rest;
  for (const auto& [id, key] : armed) rest.emplace_back(key.first, key.second, id);
  std::sort(rest.begin(), rest.end());
  log.clear();
  drain(q);
  std::vector<std::string> want;
  for (const auto& r : rest) want.push_back("T" + std::to_string(std::get<2>(r)));
  EXPECT_EQ(log, want);
}

TEST(TimerHeap, AFireThatReArmsCountsOnce) {
  // A delay line's shape: each fire re-arms its own timer for the next
  // record. Pending counts see the fired timer gone inside its fire and
  // back once re-armed; a closure due between records still interleaves.
  Simulator sim;
  std::vector<std::string> log;
  Probe probe{log, 0};
  int left = 3;
  std::vector<std::size_t> pendingInFire;
  probe.rearm = [&] {
    pendingInFire.push_back(sim.pendingEventCount());
    if (--left > 0) sim.arm(probe.timer, sim.now() + Duration::nanoseconds(20), sim.reserveSeq());
  };
  sim.arm(probe.timer, at(10), sim.reserveSeq());
  sim.scheduleAt(at(25), [&log] { log.push_back("C"); });
  EXPECT_EQ(sim.pendingEventCount(), 2u);
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"T0", "C", "T0", "T0"}));
  EXPECT_EQ(pendingInFire, (std::vector<std::size_t>{1, 0, 0}));
  EXPECT_EQ(sim.eventsExecuted(), 4u);
  EXPECT_FALSE(sim.pendingEvents());
}

TEST(TimerHeap, PendingEventCountCountsArmedTimers) {
  Simulator sim;
  std::vector<std::string> log;
  std::deque<Probe> probes;
  for (int i = 0; i < 3; ++i) probes.emplace_back(log, i);
  for (Probe& p : probes) sim.arm(p.timer, at(100 + 10 * p.id), sim.reserveSeq());
  sim.scheduleAt(at(5), [] {});
  EXPECT_EQ(sim.pendingEventCount(), 4u);
  sim.arm(probes[2].timer, at(50), sim.reserveSeq());  // re-key: still one entry
  EXPECT_EQ(sim.pendingEventCount(), 4u);
  sim.disarm(probes[0].timer);
  sim.disarm(probes[0].timer);  // disarming an unarmed timer is a no-op
  EXPECT_EQ(sim.pendingEventCount(), 3u);
  EXPECT_EQ(sim.nextEventTime(), at(5));
  sim.runUntil(at(60));
  EXPECT_EQ(log, (std::vector<std::string>{"T2"}));
  EXPECT_EQ(sim.pendingEventCount(), 1u);
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"T2", "T1"}));
  EXPECT_EQ(sim.pendingEventCount(), 0u);
}

TEST(TimerHeap, ClearAndBeginRestoreLeaveEveryTimerUnarmed) {
  for (const bool restore : {false, true}) {
    Simulator sim;
    std::vector<std::string> log;
    std::deque<Probe> probes;
    for (int i = 0; i < 20; ++i) probes.emplace_back(log, i);
    for (Probe& p : probes) sim.arm(p.timer, at(10 + 7 * (p.id % 5)), sim.reserveSeq());
    // Clear from inside the fire of a timer that does not re-arm.
    bool cleared = false;
    probes[0].rearm = [&] {
      if (restore) {
        sim.beginRestore(sim.now(), sim.eventsExecuted(), sim.scheduledTotal());
      } else {
        sim.clearPendingEvents();
      }
      cleared = true;
      sim.stop();
    };
    sim.run();
    ASSERT_TRUE(cleared);
    EXPECT_EQ(log, (std::vector<std::string>{"T0"}));
    EXPECT_EQ(sim.pendingEventCount(), 0u);
    EXPECT_EQ(sim.nextEventTime(), SimTime::max());
    for (const Probe& p : probes) EXPECT_FALSE(p.timer.armed()) << "timer " << p.id;
    // Every timer arms afresh afterwards.
    probes[0].rearm = nullptr;
    for (Probe& p : probes) sim.arm(p.timer, at(100 + p.id), sim.reserveSeq());
    EXPECT_EQ(sim.pendingEventCount(), 20u);
    sim.run();
    EXPECT_EQ(log.size(), 21u);
  }
}

}  // namespace
}  // namespace scidmz::sim
