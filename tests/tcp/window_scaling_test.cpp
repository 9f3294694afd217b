// RFC 1323 window scaling and its failure mode: a middlebox stripping the
// option caps the effective window at 64 KiB — the Penn State incident.
#include <gtest/gtest.h>

#include "../net/test_util.hpp"
#include "net/firewall.hpp"
#include "net/host.hpp"
#include "tcp/connection.hpp"

namespace scidmz::tcp {
namespace {

using namespace scidmz::sim::literals;
using testutil::Scenario;

/// client --10G/5ms-- firewall --10G/0-- server  (10ms RTT total)
struct FirewalledTcp {
  explicit FirewalledTcp(Scenario& s, bool sequenceChecking)
      : client(s.topo.addHost("client", net::Address(10, 0, 0, 1))),
        server(s.topo.addHost("server", net::Address(192, 168, 0, 1))) {
    auto profile = net::FirewallProfile::enterprise10G();
    profile.tcpSequenceChecking = sequenceChecking;
    // Generous engines/buffers: this fixture isolates the header-rewrite
    // pathology from the buffering pathology.
    profile.engineCount = 2;
    profile.engineRate = 10_Gbps;
    profile.inputBuffer = 64_MB;
    auto& fw = s.topo.addFirewall("fw", profile);
    net::LinkParams outside;
    outside.rate = 10_Gbps;
    outside.delay = 5_ms;
    net::LinkParams inside;
    inside.rate = 10_Gbps;
    inside.delay = sim::Duration::microseconds(1);
    s.topo.connect(client, fw, outside);
    s.topo.connect(fw, server, inside);
    s.topo.computeRoutes();
  }
  net::Host& client;
  net::Host& server;
};

struct Outcome {
  double mbps = 0;
  bool scaling = false;
};

Outcome runTransfer(bool sequenceChecking, sim::DataSize bytes) {
  Scenario s;
  FirewalledTcp net{s, sequenceChecking};
  TcpConfig cfg;
  cfg.sndBuf = 64_MB;
  cfg.rcvBuf = 64_MB;

  TcpListener listener{net.server, 5001, cfg};
  TcpConnection client{net.client, net.server.address(), 5001, cfg};
  client.onEstablished = [&client, bytes] { client.sendData(bytes); };
  bool done = false;
  client.onSendComplete = [&] {
    done = true;
    s.simulator.stop();
  };
  client.start();
  s.simulator.runFor(300_s);
  EXPECT_TRUE(done);
  return Outcome{client.goodput().toMbps(), client.windowScalingActive()};
}

TEST(WindowScaling, NegotiatedOnCleanPath) {
  const auto out = runTransfer(/*sequenceChecking=*/false, 64_MB);
  EXPECT_TRUE(out.scaling);
  EXPECT_GT(out.mbps, 1000.0);
}

TEST(WindowScaling, StrippedBySequenceCheckingCapsAt64K) {
  const auto out = runTransfer(/*sequenceChecking=*/true, 16_MB);
  EXPECT_FALSE(out.scaling);
  // 65535B / 10ms RTT = ~52 Mbps: the paper reports "around 50 Mbps".
  EXPECT_LT(out.mbps, 65.0);
  EXPECT_GT(out.mbps, 30.0);
}

TEST(WindowScaling, DisablingTheFeatureRestoresThroughput) {
  // The documented fix: same firewall, sequence checking turned off,
  // inbound improves ~5x or more (paper: "nearly 5 times" inbound and
  // ~12x outbound from a lower baseline).
  const auto before = runTransfer(true, 16_MB);
  const auto after = runTransfer(false, 64_MB);
  EXPECT_GT(after.mbps, 4.0 * before.mbps);
}

TEST(WindowScaling, RuntimeToggleTakesEffectForNewConnections) {
  Scenario s;
  FirewalledTcp net{s, /*sequenceChecking=*/true};
  auto* fw = dynamic_cast<net::FirewallDevice*>(s.topo.findDevice("fw"));
  ASSERT_NE(fw, nullptr);

  TcpConfig cfg;
  cfg.sndBuf = 64_MB;
  cfg.rcvBuf = 64_MB;
  TcpListener listener{net.server, 5001, cfg};

  // First connection: option stripped.
  auto c1 = std::make_unique<TcpConnection>(net.client, net.server.address(), 5001, cfg);
  bool up1 = false;
  c1->onEstablished = [&up1] { up1 = true; };
  c1->start();
  s.simulator.runFor(1_s);
  ASSERT_TRUE(up1);
  EXPECT_FALSE(c1->windowScalingActive());

  // Admin applies the fix; a new connection negotiates scaling.
  fw->setTcpSequenceChecking(false);
  auto c2 = std::make_unique<TcpConnection>(net.client, net.server.address(), 5001, cfg);
  bool up2 = false;
  c2->onEstablished = [&up2] { up2 = true; };
  c2->start();
  s.simulator.runFor(1_s);
  ASSERT_TRUE(up2);
  EXPECT_TRUE(c2->windowScalingActive());
}

TEST(WindowScaling, UnscaledFieldNeverExceeds16Bits) {
  // Even with big buffers, an endpoint that lost the scaling negotiation
  // must advertise at most 65535.
  Scenario s;
  FirewalledTcp net{s, true};
  TcpConfig cfg;
  cfg.rcvBuf = 64_MB;

  // Tap the firewall to inspect ACK headers flowing back from the server.
  std::uint16_t maxField = 0;
  auto* fw = dynamic_cast<net::FirewallDevice*>(s.topo.findDevice("fw"));
  ASSERT_NE(fw, nullptr);
  fw->setTap([&maxField](const net::Packet& p, const net::Interface&) {
    if (p.isTcp() && p.tcp().ack && !p.tcp().syn) {
      maxField = std::max(maxField, p.tcp().windowField);
    }
  });

  TcpListener listener{net.server, 5001, cfg};
  TcpConnection client{net.client, net.server.address(), 5001, cfg};
  client.onEstablished = [&client] { client.sendData(2_MB); };
  client.start();
  s.simulator.runFor(30_s);
  EXPECT_LE(maxField, 65535);
  EXPECT_GT(maxField, 0);
}

}  // namespace
}  // namespace scidmz::tcp
