#include "net/delay_line.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "../net/test_util.hpp"
#include "net/firewall.hpp"
#include "net/host.hpp"
#include "net/switch.hpp"
#include "sim/profiler.hpp"

namespace scidmz::net {
namespace {

using namespace scidmz::sim::literals;
using testutil::Scenario;

/// "P<id>@<us>": one handover in a Sink's trace.
std::string handover(std::uint64_t id, std::int64_t us) {
  std::string entry = "P";
  entry += std::to_string(id);
  entry += '@';
  entry += std::to_string(us);
  return entry;
}

/// Logs each packet the line hands over into a shared trace, so tests can
/// interleave deliveries with unrelated events.
struct Sink {
  sim::Simulator& sim;
  std::vector<std::string>& log;
  void take(PacketRef p) { log.push_back(handover(p->id, sim.now().ns() / 1000)); }
};

using Line = DelayLine<Sink, &Sink::take>;

PacketRef packet(Context& ctx, std::uint64_t id) {
  Packet p;
  p.id = id;
  return ctx.pool().acquire(std::move(p));
}

sim::SimTime at(std::int64_t us) { return sim::SimTime::fromNs(us * 1000); }

TEST(DelayLine, FifoPushesFireInPushOrderFromOnePendingEvent) {
  Scenario s;
  std::vector<std::string> log;
  Sink sink{s.simulator, log};
  Line line{s.ctx, sink, "test.line"};
  const std::int64_t due[] = {10, 20, 20, 30, 40};
  for (std::uint64_t i = 0; i < 5; ++i) line.push(at(due[i]), packet(s.ctx, i));
  EXPECT_EQ(line.size(), 5u);
  EXPECT_EQ(s.simulator.pendingEventCount(), 1u);
  s.simulator.run();
  EXPECT_EQ(log, (std::vector<std::string>{"P0@10", "P1@20", "P2@20", "P3@30", "P4@40"}));
  EXPECT_EQ(s.simulator.eventsExecuted(), 5u);
  EXPECT_TRUE(line.empty());
}

TEST(DelayLine, OvertakingPushFiresInAtSeqOrderWithOneEventPerPacket) {
  // P1 overtakes P0 and ties with E, an unrelated event scheduled before
  // it; P2 ties with P0 behind it; P3 overtakes everything. Each overtaking
  // push must retire the superseded head event, or the line would hold two
  // armed events and fire one packet's record twice.
  Scenario s;
  std::vector<std::string> log;
  Sink sink{s.simulator, log};
  Line line{s.ctx, sink, "test.line"};
  line.push(at(50), packet(s.ctx, 0));
  s.simulator.scheduleAt(at(20), [&log] { log.push_back("E@20"); });
  line.push(at(20), packet(s.ctx, 1));
  line.push(at(50), packet(s.ctx, 2));
  line.push(at(10), packet(s.ctx, 3));
  ASSERT_EQ(s.simulator.pendingEventCount(), 2u);  // the line's head and E
  s.simulator.run();
  EXPECT_EQ(log, (std::vector<std::string>{"P3@10", "E@20", "P1@20", "P0@50", "P2@50"}));
  EXPECT_EQ(s.simulator.eventsExecuted(), 5u);
}

TEST(RingBlocks, DelayLineFifoAndOvertakingPushesAcrossBlockBoundaries) {
  // Three blocks of FIFO records, then pushes that overtake across a block
  // boundary: each lands in a fresh block and moves forward into the one
  // before it. Firing order is (at, seq) order, one pending event at a time.
  Scenario s;
  std::vector<std::string> log;
  Sink sink{s.simulator, log};
  Line line{s.ctx, sink, "test.line"};
  constexpr std::int64_t kBlock = detail::Ring<DelayRecord>::kBlockElems;
  std::vector<std::pair<std::int64_t, std::uint64_t>> expected;  // (due us, id)
  std::uint64_t id = 0;
  for (std::int64_t i = 0; i < 3 * kBlock; ++i) {
    line.push(at(10 * (i + 1)), packet(s.ctx, id));
    expected.emplace_back(10 * (i + 1), id++);
  }
  // Due between the last two records of the first block: moves back across
  // two block boundaries into it. Then one due before everything: a new head.
  const std::int64_t mid = 10 * (kBlock - 1) + 5;
  line.push(at(mid), packet(s.ctx, id));
  expected.emplace_back(mid, id++);
  line.push(at(1), packet(s.ctx, id));
  expected.emplace_back(1, id++);
  EXPECT_EQ(line.size(), static_cast<std::size_t>(3 * kBlock + 2));
  EXPECT_EQ(s.simulator.pendingEventCount(), 1u);
  s.simulator.run();
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> want;
  for (auto [us, pid] : expected) want.push_back(handover(pid, us));
  EXPECT_EQ(log, want);
  EXPECT_EQ(s.simulator.eventsExecuted(), static_cast<std::uint64_t>(3 * kBlock + 2));
  EXPECT_EQ(s.ctx.pool().liveCount(), 0u);
}

/// A serialized line: a count, then (at, seq, packet) records head-first.
std::vector<std::uint8_t> lineBlob(
    const std::vector<std::pair<std::int64_t, std::uint64_t>>& recs) {
  sim::BitWriter w;
  sim::Codec c{w};
  std::uint64_t n = recs.size();
  c.vu64(n);
  std::uint64_t id = 0;
  for (auto [us, seq] : recs) {
    sim::SimTime t = at(us);
    Packet p;
    p.id = id++;
    sim::codecTime(c, t);
    c.vu64(seq);
    codecPacket(c, p);
  }
  return w.take();
}

bool restoreLine(Line& line, const std::vector<std::uint8_t>& blob) {
  sim::BitReader r{blob.data(), blob.size()};
  sim::Codec c{r};
  line.serialize(c);
  return c.ok();
}

TEST(DelayLine, RestoreRefusesUnsortedLineButAcceptsSortedLineWithFallingSeqs) {
  Scenario s;
  std::vector<std::string> log;
  Sink sink{s.simulator, log};
  Line line{s.ctx, sink, "test.line"};
  EXPECT_FALSE(restoreLine(line, lineBlob({{20, 3}, {10, 9}})));  // later at first
  EXPECT_FALSE(restoreLine(line, lineBlob({{10, 5}, {10, 4}})));  // tied at, falling seq
  EXPECT_FALSE(restoreLine(line, lineBlob({{10, 5}, {10, 5}})));  // duplicate key

  // A store-and-forward pipeline's line: the short frame keyed later is due
  // first. Sorted by (at, seq), so it restores and fires in that order.
  s.simulator.beginRestore(sim::SimTime::zero(), 0, 100);
  ASSERT_TRUE(restoreLine(line, lineBlob({{10, 9}, {20, 3}, {20, 7}})));
  EXPECT_EQ(line.size(), 3u);
  EXPECT_EQ(s.simulator.pendingEventCount(), 1u);
  s.simulator.run();
  EXPECT_EQ(log, (std::vector<std::string>{"P0@10", "P1@20", "P2@20"}));
}

TEST(DelayLine, RecordCountPastTheEndFailsWithoutAllocating) {
  // One real record behind a count the rest of the blob cannot hold: the
  // count is refused before any pool slot is taken, and the line stays empty
  // and unarmed.
  for (const std::uint64_t count : {std::uint64_t{2}, std::uint64_t{1} << 61}) {
    sim::BitWriter w;
    sim::Codec c{w};
    std::uint64_t n = count;
    c.vu64(n);
    sim::SimTime t = at(10);
    std::uint64_t seq = 1;
    Packet p;
    sim::codecTime(c, t);
    c.vu64(seq);
    codecPacket(c, p);
    const std::vector<std::uint8_t> blob = w.take();

    Scenario s;
    std::vector<std::string> log;
    Sink sink{s.simulator, log};
    Line line{s.ctx, sink, "test.line"};
    const std::size_t high = s.ctx.pool().highWater();
    EXPECT_FALSE(restoreLine(line, blob)) << "count " << count;
    EXPECT_TRUE(line.empty());
    EXPECT_EQ(s.ctx.pool().liveCount(), 0u);
    EXPECT_EQ(s.ctx.pool().highWater(), high);
    EXPECT_EQ(s.simulator.pendingEventCount(), 0u);
  }
}

TEST(DelayLine, DestroyingAnArmedLineDisarmsIt) {
  Scenario s;
  std::vector<std::string> log;
  Sink sink{s.simulator, log};
  {
    Line line{s.ctx, sink, "test.line"};
    line.push(at(10), packet(s.ctx, 0));
    line.push(at(20), packet(s.ctx, 1));
    EXPECT_EQ(s.simulator.pendingEventCount(), 1u);
  }
  EXPECT_EQ(s.simulator.pendingEventCount(), 0u);
  EXPECT_EQ(s.ctx.pool().liveCount(), 0u);
  s.simulator.scheduleAt(at(30), [&log] { log.push_back("E@30"); });
  s.simulator.run();  // the destroyed line's timer must not fire
  EXPECT_EQ(log, (std::vector<std::string>{"E@30"}));
  EXPECT_EQ(s.simulator.eventsExecuted(), 1u);
}

/// a -> store-and-forward router -> two-engine firewall -> b, 1 ms links:
/// packets wait in every kind of delay line.
struct EveryLineCell {
  explicit EveryLineCell(Context& ctx) : topo(ctx) {
    a = &topo.addHost("a", Address(10, 0, 0, 1));
    SwitchProfile slow;
    slow.processingDelay = 2_ms;
    router = &topo.addRouter("rt", slow);
    FirewallProfile narrow;
    narrow.engineCount = 2;
    narrow.engineRate = 100_Mbps;
    narrow.inputBuffer = 1_MiB;
    fw = &topo.addFirewall("fw", narrow);
    b = &topo.addHost("b", Address(10, 0, 0, 2));
    LinkParams params;
    params.rate = 1_Gbps;
    params.delay = 1_ms;
    topo.connect(*a, *router, params);
    topo.connect(*router, *fw, params);
    topo.connect(*fw, *b, params);
    topo.computeRoutes();
  }
  void send(int packets) {
    for (int i = 0; i < packets; ++i) {
      Packet p;
      p.flow = FlowKey{a->address(), b->address(), static_cast<std::uint16_t>(i % 4), 7,
                       Protocol::kUdp};
      p.payload = 1000_B;
      a->send(std::move(p));
    }
  }
  Topology topo;
  Host* a = nullptr;
  RouterDevice* router = nullptr;
  FirewallDevice* fw = nullptr;
  Host* b = nullptr;
};

TEST(Profiler, PacketCellNamesEveryDelayLineLayer) {
  sim::Simulator simulator;
  sim::Rng rng{7};
  Context ctx{simulator, rng};
  sim::Profiler profiler;
  simulator.setProfiler(&profiler);
  EveryLineCell cell{ctx};
  cell.send(50);
  simulator.run();
  std::uint64_t total = 0;
  for (const auto& [name, stats] : profiler.sources()) total += stats.count;
  EXPECT_EQ(total, profiler.eventsProfiled());
  EXPECT_EQ(profiler.eventsProfiled(), simulator.eventsExecuted());
  for (const char* layer : {"net.link", "net.tx", "net.firewall", "net.switch"}) {
    ASSERT_TRUE(profiler.sources().count(layer)) << layer;
    EXPECT_GE(profiler.sources().at(layer).count, 50u) << layer;
  }
}

TEST(DelayLine, DestroyingTopologyMidRunReleasesEveryPoolSlot) {
  // Packets wait in every kind of line at once: link directions, the tx
  // records, a store-and-forward router's pipeline and firewall engines.
  // Tearing the topology down mid-run must return every slot to the (still
  // live) pool, with no event closure holding one back.
  sim::Simulator simulator;
  sim::Rng rng{7};
  Context ctx{simulator, rng};
  {
    EveryLineCell cell{ctx};
    cell.send(500);
    simulator.runUntil(sim::SimTime::zero() + 6_ms);
    ASSERT_GT(cell.router->inPipeline(), 10u);
    ASSERT_GT(cell.fw->inInspection(), 10u);
    ASSERT_GT(cell.topo.links()[1]->inFlight(0), 10u);
    EXPECT_GT(ctx.pool().liveCount(), 0u);
  }
  EXPECT_EQ(ctx.pool().liveCount(), 0u);
}

}  // namespace
}  // namespace scidmz::net
