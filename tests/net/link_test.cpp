#include "net/link.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "../net/test_util.hpp"
#include "net/host.hpp"

namespace scidmz::net {
namespace {

using namespace scidmz::sim::literals;
using testutil::Scenario;

/// Captures every packet delivered to a bound UDP port.
class Capture : public PacketSink {
 public:
  void onPacket(const Packet& p) override { packets.push_back(p); }
  std::vector<Packet> packets;
};

struct TwoHosts {
  explicit TwoHosts(Scenario& s, LinkParams params = {})
      : a(s.topo.addHost("a", Address(10, 0, 0, 1))),
        b(s.topo.addHost("b", Address(10, 0, 0, 2))),
        link(s.topo.connect(a, b, params)) {
    s.topo.computeRoutes();
    b.bind(Protocol::kUdp, 7, capture);
  }
  Host& a;
  Host& b;
  Link& link;
  Capture capture;
};

Packet probeTo(Address dst, sim::DataSize payload, std::uint64_t seqNo = 0) {
  Packet p;
  p.flow = FlowKey{Address{}, dst, 99, 7, Protocol::kUdp};
  ProbeHeader h;
  h.seqNo = seqNo;
  p.body = h;
  p.payload = payload;
  return p;
}

/// Logs each delivery (probe seqNo and arrival time) into a shared trace,
/// so tests can interleave deliveries with unrelated events.
class Recorder : public PacketSink {
 public:
  Recorder(sim::Simulator& sim, std::vector<std::string>& log) : sim_(sim), log_(log) {}
  void onPacket(const Packet& p) override {
    const std::uint64_t seqNo = std::get<ProbeHeader>(p.body).seqNo;
    log_.push_back(std::string("P").append(std::to_string(seqNo)));
    at.push_back(sim_.now());
  }
  std::vector<sim::SimTime> at;

 private:
  sim::Simulator& sim_;
  std::vector<std::string>& log_;
};

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  Scenario s;
  LinkParams params;
  params.rate = 1_Gbps;
  params.delay = 1_ms;
  TwoHosts net{s, params};

  net.a.send(probeTo(net.b.address(), 1472_B));  // 1500B on the wire
  s.simulator.run();

  ASSERT_EQ(net.capture.packets.size(), 1u);
  // 1500B at 1Gbps = 12us serialization + 1ms propagation.
  EXPECT_EQ(s.simulator.now(), sim::SimTime::zero() + 1_ms + 12_us);
}

TEST(Link, BackToBackPacketsSerializeSequentially) {
  Scenario s;
  LinkParams params;
  params.rate = 1_Gbps;
  params.delay = 0_ns;
  TwoHosts net{s, params};

  for (int i = 0; i < 10; ++i) net.a.send(probeTo(net.b.address(), 1472_B));
  s.simulator.run();

  ASSERT_EQ(net.capture.packets.size(), 10u);
  EXPECT_EQ(s.simulator.now(), sim::SimTime::zero() + 120_us);
}

TEST(Link, RandomLossDropsApproximatelyAtRate) {
  Scenario s;
  LinkParams params;
  params.rate = 10_Gbps;
  TwoHosts net{s, params};
  net.link.setLossModel(0, std::make_unique<RandomLoss>(0.01, s.rng.fork(1)));

  const int n = 20000;
  for (int i = 0; i < n; ++i) net.a.send(probeTo(net.b.address(), 100_B));
  s.simulator.run();

  const double lossFrac = net.link.stats(0).lossFraction();
  EXPECT_NEAR(lossFrac, 0.01, 0.003);
  EXPECT_EQ(net.capture.packets.size(),
            static_cast<std::size_t>(n) - net.link.stats(0).lost);
}

TEST(Link, PeriodicLossDropsExactlyOneInN) {
  Scenario s;
  TwoHosts net{s};
  net.link.setLossModel(0, std::make_unique<PeriodicLoss>(100));

  for (int i = 0; i < 1000; ++i) net.a.send(probeTo(net.b.address(), 100_B));
  s.simulator.run();

  EXPECT_EQ(net.link.stats(0).lost, 10u);
  EXPECT_EQ(net.capture.packets.size(), 990u);
}

TEST(Link, RepairRemovesLoss) {
  Scenario s;
  TwoHosts net{s};
  net.link.setLossModel(0, std::make_unique<PeriodicLoss>(2));
  for (int i = 0; i < 10; ++i) net.a.send(probeTo(net.b.address(), 100_B));
  s.simulator.run();
  EXPECT_EQ(net.link.stats(0).lost, 5u);

  net.link.repair();
  for (int i = 0; i < 10; ++i) net.a.send(probeTo(net.b.address(), 100_B));
  s.simulator.run();
  EXPECT_EQ(net.link.stats(0).lost, 5u);  // unchanged
  EXPECT_EQ(net.capture.packets.size(), 15u);
}

TEST(Link, LossIsDirectional) {
  Scenario s;
  TwoHosts net{s};
  net.link.setLossModel(1, std::make_unique<PeriodicLoss>(1));  // b->a drops all

  // a -> b still works.
  net.a.send(probeTo(net.b.address(), 100_B));
  s.simulator.run();
  EXPECT_EQ(net.capture.packets.size(), 1u);
}

TEST(Link, EgressQueueOverflowDropsBeforeWire) {
  Scenario s;
  LinkParams params;
  params.rate = 1_Mbps;  // slow drain
  TwoHosts net{s, params};
  auto& nicQueue = net.a.interface(0).queue();
  nicQueue.setCapacity(3000_B);

  for (int i = 0; i < 100; ++i) net.a.send(probeTo(net.b.address(), 1000_B));
  s.simulator.run();

  EXPECT_GT(nicQueue.stats().dropped, 0u);
  EXPECT_EQ(net.capture.packets.size(),
            static_cast<std::size_t>(nicQueue.stats().enqueued));
}

TEST(Link, HighBdpLinkKeepsOnePendingEventPerDirection) {
  // 10G at 100 ms: 5,000 packets each way fit on the wire at once. The
  // delay line holds them all; the event queue holds only its head.
  Scenario s;
  LinkParams params;
  params.rate = 10_Gbps;
  params.delay = 100_ms;
  TwoHosts net{s, params};
  Capture back;
  net.a.bind(Protocol::kUdp, 7, back);
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    net.a.send(probeTo(net.b.address(), 1472_B));
    net.b.send(probeTo(net.a.address(), 1472_B));
  }
  // Mid-serialization: one tx-complete event per sending port plus one
  // head per direction, however many packets are already propagating.
  s.simulator.runUntil(sim::SimTime::zero() + 3_ms);
  EXPECT_GT(net.link.inFlight(0), 2000u);
  EXPECT_LE(s.simulator.pendingEventCount(), 4u);
  // Everything serialized, nothing delivered yet.
  s.simulator.runUntil(sim::SimTime::zero() + 50_ms);
  EXPECT_EQ(net.link.inFlight(0), static_cast<std::size_t>(n));
  EXPECT_EQ(net.link.inFlight(1), static_cast<std::size_t>(n));
  EXPECT_EQ(s.simulator.pendingEventCount(), 2u);
  s.simulator.run();
  EXPECT_EQ(net.capture.packets.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(back.packets.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(net.link.inFlight(0), 0u);
  EXPECT_EQ(s.simulator.pendingEventCount(), 0u);
}

TEST(Link, DeliveriesFireAtSendTimePlusDelayInSendOrder) {
  Scenario s;
  LinkParams params;
  params.rate = 1_Gbps;
  params.delay = 100_ms;
  TwoHosts net{s, params};
  std::vector<std::string> log;
  Recorder rec{s.simulator, log};
  net.b.bind(Protocol::kUdp, 7, rec);
  // Mixed sizes, so every packet leaves the wire at a different offset.
  const std::uint64_t wire[] = {1500, 100, 9000, 64, 1500, 700};
  std::vector<std::string> want;
  std::vector<sim::SimTime> wantAt;
  sim::SimTime sent = sim::SimTime::zero();
  for (std::size_t i = 0; i < std::size(wire); ++i) {
    net.a.send(probeTo(net.b.address(), sim::DataSize::bytes(wire[i] - 28), i));
    sent += params.rate.transmissionTime(sim::DataSize::bytes(wire[i]));
    want.push_back(std::string("P").append(std::to_string(i)));
    wantAt.push_back(sent + params.delay);
  }
  s.simulator.run();
  EXPECT_EQ(log, want);
  EXPECT_EQ(rec.at, wantAt);
}

TEST(Link, TiedDeliveryFiresInAtSeqOrderWithUnrelatedEvents) {
  // Two packets leave the wire at 12 us (P0) and 20 us (P1). Two unrelated
  // events are due at exactly P1's arrival time: E0, scheduled between the
  // two sends, must fire before P1; E1, scheduled after both, after it.
  // The delay line arms P1 only once P0 fires, long after E1 was
  // scheduled, so this holds only if P1 kept the key reserved at send.
  Scenario s;
  LinkParams params;
  params.rate = 1_Gbps;
  params.delay = 100_ms;
  TwoHosts net{s, params};
  std::vector<std::string> log;
  Recorder rec{s.simulator, log};
  net.b.bind(Protocol::kUdp, 7, rec);
  net.a.send(probeTo(net.b.address(), 1472_B, 0));  // 1500 B: 12 us
  net.a.send(probeTo(net.b.address(), 972_B, 1));   // 1000 B: 8 us
  const sim::SimTime p1At = sim::SimTime::zero() + 20_us + 100_ms;
  s.simulator.scheduleAt(sim::SimTime::zero() + 16_us, [&] {
    s.simulator.scheduleAt(p1At, [&] { log.push_back("E0"); });
  });
  s.simulator.scheduleAt(sim::SimTime::zero() + 22_us, [&] {
    s.simulator.scheduleAt(p1At, [&] { log.push_back("E1"); });
  });
  s.simulator.run();
  EXPECT_EQ(log, (std::vector<std::string>{"P0", "E0", "P1", "E1"}));
  ASSERT_EQ(rec.at.size(), 2u);
  EXPECT_EQ(rec.at[1], p1At);
}

TEST(Link, DestroyingTopologyMidRunReleasesInFlightPackets) {
  // Packets sit in every datapath record at once: egress queues, the tx
  // record, and both delay lines. Tearing the topology down mid-run must
  // return every slot to the (still live) pool.
  sim::Simulator simulator;
  sim::Rng rng{7};
  Context ctx{simulator, rng};
  {
    Topology topo{ctx};
    auto& a = topo.addHost("a", Address(10, 0, 0, 1));
    auto& b = topo.addHost("b", Address(10, 0, 0, 2));
    LinkParams params;
    params.rate = 1_Gbps;
    params.delay = 50_ms;
    Link& link = topo.connect(a, b, params);
    topo.computeRoutes();
    for (int i = 0; i < 3000; ++i) {
      a.send(probeTo(b.address(), 1472_B));
      b.send(probeTo(a.address(), 1472_B));
    }
    simulator.runUntil(sim::SimTime::zero() + 20_ms);
    ASSERT_GT(link.inFlight(0), 1000u);
    ASSERT_GT(link.inFlight(1), 1000u);
    ASSERT_FALSE(a.interface(0).queue().empty());
    EXPECT_EQ(ctx.pool().liveCount(), 6000u);
  }
  EXPECT_EQ(ctx.pool().liveCount(), 0u);
}

}  // namespace
}  // namespace scidmz::net
