// ShardedSimulator unit tests: conservative barrier-epoch execution of N
// per-domain Simulators stitched by timestamped channels. Covers the
// boundary-link edge cases the scenario layer relies on — zero-lookahead
// rejection, below-floor channel rejection, cross-domain delivery timing,
// per-channel FIFO order, boundary-after-local tie-breaking at equal
// timestamps, the idle null-message-style advance, messages pending across
// runUntil calls, cancellation of an event that would have posted
// cross-domain, and the per-domain busy/wait split of host time.
#include "sim/domain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace scidmz::sim {
namespace {

using namespace scidmz::sim::literals;

/// A cut channel whose payload is a closure: the smallest Inbox, a
/// stand-in for a link direction's packet channel. post() is called from
/// the sending domain's thread mid-epoch; publish() hands the staged batch
/// over at the barrier; drain(), on the destination's thread, arms every
/// published closure in the destination domain under its reserved key.
class ClosureChannel final : public ShardedSimulator::Inbox {
 public:
  ClosureChannel(ShardedSimulator& sh, Simulator& dst, int dstDomain, Duration delay)
      : dst_(dst), id_(sh.addChannel(dstDomain, delay, this)) {}

  void post(SimTime at, std::function<void()> cb) {
    staged_.push_back(Message{at, ShardedSimulator::boundarySeq(id_, sent_++), std::move(cb)});
  }

  void publish() override { staged_.swap(ready_); }
  [[nodiscard]] SimTime earliest() const override {
    SimTime t = SimTime::max();
    for (const Message& m : ready_) t = std::min(t, m.at);
    return t;
  }
  void drain() override {
    for (Message& m : ready_) dst_.restoreSchedule(m.at, m.seq, std::move(m.cb));
    ready_.clear();
  }
  [[nodiscard]] std::size_t staged() const override { return staged_.size() + ready_.size(); }

 private:
  struct Message {
    SimTime at;
    std::uint64_t seq;
    std::function<void()> cb;
  };
  Simulator& dst_;
  std::uint32_t id_;
  std::uint64_t sent_ = 0;
  std::vector<Message> staged_;
  std::vector<Message> ready_;
};

TEST(ShardedSimulator, RejectsNonPositiveLookahead) {
  Simulator a;
  EXPECT_THROW((ShardedSimulator({&a}, Duration::zero())), std::invalid_argument);
  EXPECT_THROW((ShardedSimulator({&a}, Duration::nanoseconds(-1))), std::invalid_argument);
}

TEST(ShardedSimulator, RejectsEmptyDomainSet) {
  EXPECT_THROW((ShardedSimulator({}, 5_ms)), std::invalid_argument);
}

TEST(ShardedSimulator, RejectsChannelBelowLookaheadFloor) {
  Simulator a;
  Simulator b;
  ShardedSimulator sh({&a, &b}, 5_ms);
  EXPECT_THROW(ClosureChannel(sh, b, 1, 1_ms), std::invalid_argument);
  EXPECT_THROW(ClosureChannel(sh, b, 2, 10_ms), std::invalid_argument);  // dst out of range
}

TEST(ShardedSimulator, CrossDomainMessageArrivesAtPostedTime) {
  Simulator a;
  Simulator b;
  ShardedSimulator sh({&a, &b}, 5_ms);
  ClosureChannel ch(sh, b, 1, 10_ms);
  std::vector<std::int64_t> arrivals;
  a.schedule(1_ms, [&] { ch.post(a.now() + 10_ms, [&] { arrivals.push_back(b.now().ns()); }); });
  sh.runFor(20_ms);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], (SimTime::zero() + 11_ms).ns());
  EXPECT_EQ(a.now(), SimTime::zero() + 20_ms);
  EXPECT_EQ(b.now(), SimTime::zero() + 20_ms);
  EXPECT_EQ(sh.eventsExecuted(), 2u);
  EXPECT_EQ(sh.domainEvents(0), 1u);
  EXPECT_EQ(sh.domainEvents(1), 1u);
}

TEST(ShardedSimulator, ChannelPreservesFifoOrder) {
  Simulator a;
  Simulator b;
  ShardedSimulator sh({&a, &b}, 5_ms);
  ClosureChannel ch(sh, b, 1, 10_ms);
  std::vector<int> order;
  // Two deliveries with the SAME arrival timestamp: the per-channel FIFO
  // counter must keep them in posting order.
  a.schedule(1_ms, [&] {
    ch.post(a.now() + 10_ms, [&] { order.push_back(1); });
    ch.post(a.now() + 10_ms, [&] { order.push_back(2); });
  });
  sh.runFor(20_ms);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(ShardedSimulator, BoundaryDeliverySortsAfterSameTimeLocalEvent) {
  Simulator a;
  Simulator b;
  ShardedSimulator sh({&a, &b}, 5_ms);
  ClosureChannel ch(sh, b, 1, 10_ms);
  std::vector<std::string> order;
  // Local event in the destination domain at exactly the delivery time: the
  // reserved boundary sequence band must sort the delivery after it.
  b.schedule(11_ms, [&] { order.push_back("local"); });
  a.schedule(1_ms, [&] { ch.post(a.now() + 10_ms, [&] { order.push_back("boundary"); }); });
  sh.runFor(20_ms);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "local");
  EXPECT_EQ(order[1], "boundary");
}

TEST(ShardedSimulator, IdleDomainsAdvanceStraightToDeadline) {
  Simulator a;
  Simulator b;
  Simulator c;
  ShardedSimulator sh({&a, &b, &c}, 5_ms);
  // No events anywhere: the horizon must jump past the deadline instead of
  // crawling in lookahead-sized epochs.
  sh.runUntil(SimTime::zero() + 10_s);
  EXPECT_EQ(a.now(), SimTime::zero() + 10_s);
  EXPECT_EQ(b.now(), SimTime::zero() + 10_s);
  EXPECT_EQ(c.now(), SimTime::zero() + 10_s);
  EXPECT_EQ(sh.eventsExecuted(), 0u);
}

TEST(ShardedSimulator, MessageBeyondDeadlineStaysPendingAcrossRuns) {
  Simulator a;
  Simulator b;
  ShardedSimulator sh({&a, &b}, 5_ms);
  ClosureChannel ch(sh, b, 1, 29_ms);
  std::vector<std::int64_t> arrivals;
  // The posting event runs in the FINAL epoch of the first runFor (19 ms +
  // 5 ms lookahead overshoots the 20 ms deadline), so the message is never
  // drained inside that run and must sit in the channel until the next.
  a.schedule(19_ms, [&] { ch.post(a.now() + 29_ms, [&] { arrivals.push_back(b.now().ns()); }); });
  sh.runFor(20_ms);
  EXPECT_TRUE(arrivals.empty());
  EXPECT_EQ(sh.pendingChannelMessages(), 1u);
  sh.runFor(30_ms);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], (SimTime::zero() + 48_ms).ns());
  EXPECT_EQ(sh.pendingChannelMessages(), 0u);
}

TEST(ShardedSimulator, CancelledEventNeverPostsCrossDomain) {
  Simulator a;
  Simulator b;
  ShardedSimulator sh({&a, &b}, 5_ms);
  ClosureChannel ch(sh, b, 1, 10_ms);
  int arrivals = 0;
  const EventId id =
      a.schedule(1_ms, [&] { ch.post(a.now() + 10_ms, [&] { ++arrivals; }); });
  a.cancel(id);
  sh.runFor(30_ms);
  EXPECT_EQ(arrivals, 0);
  EXPECT_EQ(sh.pendingChannelMessages(), 0u);
  EXPECT_EQ(sh.eventsExecuted(), 0u);
}

TEST(ShardedSimulator, BusyAndWaitSplitEachDomainsShareOfTheRun) {
  Simulator a;
  Simulator b;
  ShardedSimulator sh({&a, &b}, 5_ms);
  // b spends 20 ms of host time in one event; a has nothing to run, so it
  // spends that time at the barrier.
  b.schedule(1_ms, [] {
    const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
    while (std::chrono::steady_clock::now() < until) {
    }
  });
  sh.runFor(10_ms);
  EXPECT_GE(sh.domainBusySeconds(1), 0.02);
  EXPECT_GE(sh.domainWaitSeconds(0) + sh.domainBusySeconds(0), 0.02);
  EXPECT_GE(sh.domainWaitSeconds(0), 0.02 - sh.domainBusySeconds(0));
  // Busy + wait is the run's host time, the same for every domain.
  EXPECT_NEAR(sh.domainBusySeconds(0) + sh.domainWaitSeconds(0),
              sh.domainBusySeconds(1) + sh.domainWaitSeconds(1), 1e-9);
}

TEST(ShardedSimulator, PingPongAcrossThreeDomainsIsDeterministic) {
  // A message relay a -> b -> c -> a, repeated: exercises channels in both
  // directions across three worker-threaded domains and checks the final
  // event counts and clock agreement.
  auto run = [] {
    Simulator a;
    Simulator b;
    Simulator c;
    ShardedSimulator sh({&a, &b, &c}, 5_ms);
    ClosureChannel ab(sh, b, 1, 10_ms);
    ClosureChannel bc(sh, c, 2, 10_ms);
    ClosureChannel ca(sh, a, 0, 10_ms);
    std::vector<std::int64_t> hops;
    std::function<void()> fromA = [&] { ab.post(a.now() + 10_ms, [&] {
      hops.push_back(b.now().ns());
      bc.post(b.now() + 10_ms, [&] {
        hops.push_back(c.now().ns());
        ca.post(c.now() + 10_ms, [&] {
          hops.push_back(a.now().ns());
          if (hops.size() < 12) fromA();
        });
      });
    }); };
    a.schedule(1_ms, fromA);
    sh.runFor(500_ms);
    return hops;
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), 12u);
  EXPECT_EQ(first, second);
  // Hop k lands at 1ms + (k+1)*10ms.
  for (std::size_t k = 0; k < first.size(); ++k) {
    EXPECT_EQ(first[k],
              Duration::milliseconds(1 + 10 * static_cast<std::int64_t>(k + 1)).ns());
  }
}

}  // namespace
}  // namespace scidmz::sim
