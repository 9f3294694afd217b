#include "net/firewall.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../net/test_util.hpp"
#include "net/host.hpp"

namespace scidmz::net {
namespace {

using namespace scidmz::sim::literals;
using testutil::Scenario;

class Capture : public PacketSink {
 public:
  void onPacket(const Packet& p) override { packets.push_back(p); }
  std::vector<Packet> packets;
};

/// outside --10G-- firewall --10G-- inside
struct FirewalledPair {
  FirewalledPair(Scenario& s, FirewallProfile profile)
      : fw(s.topo.addFirewall("fw", profile)),
        outside(s.topo.addHost("outside", Address(198, 0, 0, 1))),
        inside(s.topo.addHost("inside", Address(10, 0, 0, 1))) {
    LinkParams link;
    link.rate = 10_Gbps;
    s.topo.connect(outside, fw, link);
    s.topo.connect(fw, inside, link);
    s.topo.computeRoutes();
    inside.bind(Protocol::kTcp, 5001, capture);
  }
  FirewallDevice& fw;
  Host& outside;
  Host& inside;
  Capture capture;
};

Packet tcpData(Address dst, sim::DataSize payload, std::uint16_t sport = 40000) {
  Packet p;
  p.flow = FlowKey{Address{}, dst, sport, 5001, Protocol::kTcp};
  TcpHeader h;
  h.ack = true;
  p.body = h;
  p.payload = payload;
  return p;
}

Packet synTo(Address dst, std::uint16_t sport = 40000) {
  auto p = tcpData(dst, 0_B, sport);
  p.tcp().syn = true;
  p.tcp().ack = false;
  p.tcp().windowScalePresent = true;
  p.tcp().windowScale = 7;
  return p;
}

TEST(Firewall, ForwardsPermittedTraffic) {
  Scenario s;
  FirewalledPair net{s, FirewallProfile::enterprise10G()};
  net.outside.send(tcpData(net.inside.address(), 1000_B));
  s.simulator.run();
  ASSERT_EQ(net.capture.packets.size(), 1u);
  EXPECT_EQ(net.fw.firewallStats().inspected, 1u);
}

TEST(Firewall, PolicyDeniesBeforeBuffering) {
  Scenario s;
  FirewalledPair net{s, FirewallProfile::enterprise10G()};
  AclTable policy{AclAction::kDeny};
  net.fw.setPolicy(policy);
  net.outside.send(tcpData(net.inside.address(), 1000_B));
  s.simulator.run();
  EXPECT_EQ(net.capture.packets.size(), 0u);
  EXPECT_EQ(net.fw.firewallStats().dropsPolicy, 1u);
}

TEST(Firewall, SequenceCheckingStripsWindowScale) {
  Scenario s;
  auto profile = FirewallProfile::enterprise10G();
  profile.tcpSequenceChecking = true;
  FirewalledPair net{s, profile};
  net.outside.send(synTo(net.inside.address()));
  s.simulator.run();
  ASSERT_EQ(net.capture.packets.size(), 1u);
  EXPECT_FALSE(net.capture.packets[0].tcp().windowScalePresent);
  EXPECT_EQ(net.capture.packets[0].tcp().windowScale, 0);
  EXPECT_EQ(net.fw.firewallStats().synsRewritten, 1u);
}

TEST(Firewall, SequenceCheckingOffPreservesWindowScale) {
  Scenario s;
  auto profile = FirewallProfile::enterprise10G();
  profile.tcpSequenceChecking = false;
  FirewalledPair net{s, profile};
  net.outside.send(synTo(net.inside.address()));
  s.simulator.run();
  ASSERT_EQ(net.capture.packets.size(), 1u);
  EXPECT_TRUE(net.capture.packets[0].tcp().windowScalePresent);
  EXPECT_EQ(net.capture.packets[0].tcp().windowScale, 7);
}

TEST(Firewall, LineRateBurstOverflowsInputBuffer) {
  // A single 10G line-rate burst of 2 MB against a 256 KiB input buffer
  // drained by 1.25 Gbps engines: most of the burst must drop.
  Scenario s;
  FirewalledPair net{s, FirewallProfile::enterprise10G()};
  const int n = 1400;  // ~2 MB of 1500B frames
  for (int i = 0; i < n; ++i) net.outside.send(tcpData(net.inside.address(), 1460_B));
  s.simulator.run();

  const auto& st = net.fw.firewallStats();
  EXPECT_GT(st.dropsInputBuffer, static_cast<std::uint64_t>(n) / 2);
  EXPECT_EQ(st.inspected + st.dropsInputBuffer, static_cast<std::uint64_t>(n));
  EXPECT_EQ(net.capture.packets.size(), static_cast<std::size_t>(st.inspected));
}

TEST(Firewall, ManySlowFlowsPassCleanly) {
  // The business-traffic profile the firewall is built for: many flows,
  // each well under an engine's rate, spaced out in time.
  Scenario s;
  FirewalledPair net{s, FirewallProfile::enterprise10G()};
  for (int burst = 0; burst < 20; ++burst) {
    s.simulator.schedule(sim::Duration::milliseconds(burst), [&net, burst] {
      for (std::uint16_t f = 0; f < 16; ++f) {
        net.outside.send(
            tcpData(net.inside.address(), 1460_B, static_cast<std::uint16_t>(41000 + f)));
      }
      (void)burst;
    });
  }
  s.simulator.run();
  EXPECT_EQ(net.fw.firewallStats().dropsInputBuffer, 0u);
  EXPECT_EQ(net.capture.packets.size(), 320u);
}

TEST(Firewall, SessionTableLimitDropsNewFlows) {
  Scenario s;
  auto profile = FirewallProfile::enterprise10G();
  profile.sessionTableSize = 10;
  FirewalledPair net{s, profile};
  for (std::uint16_t f = 0; f < 20; ++f) {
    net.outside.send(synTo(net.inside.address(), static_cast<std::uint16_t>(30000 + f)));
  }
  s.simulator.run();
  EXPECT_EQ(net.fw.firewallStats().dropsSessionTable, 10u);
  EXPECT_EQ(net.capture.packets.size(), 10u);
  EXPECT_EQ(net.fw.firewallStats().peakSessions, 10u);
}

TEST(Firewall, BypassSkipsEnginesEntirely) {
  Scenario s;
  FirewalledPair net{s, FirewallProfile::enterprise10G()};
  // Same 2 MB burst as the overflow test, but the flow has an SDN bypass.
  auto sample = tcpData(net.inside.address(), 1460_B);
  FlowKey flowAsSeen = sample.flow;
  flowAsSeen.src = net.outside.address();  // Host::send stamps the source
  net.fw.addBypass(flowAsSeen);

  const int n = 1400;
  for (int i = 0; i < n; ++i) net.outside.send(tcpData(net.inside.address(), 1460_B));
  s.simulator.run();

  EXPECT_EQ(net.fw.firewallStats().dropsInputBuffer, 0u);
  EXPECT_EQ(net.fw.firewallStats().inspected, 0u);
  EXPECT_EQ(net.capture.packets.size(), static_cast<std::size_t>(n));
}

TEST(Firewall, EnginesAddLatency) {
  Scenario s;
  FirewalledPair net{s, FirewallProfile::enterprise10G()};
  net.outside.send(tcpData(net.inside.address(), 1460_B));
  s.simulator.run();
  // Path without firewall: 2 x (1.2us serialization + 5us propagation).
  // The firewall adds engine serialization (1500B at 1.25Gbps = 9.6us) and
  // 20us inspection delay; total must exceed the raw path time.
  EXPECT_GT(s.simulator.now() - sim::SimTime::zero(), 30_us);
}

}  // namespace
}  // namespace scidmz::net
