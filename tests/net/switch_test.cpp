#include "net/switch.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../net/test_util.hpp"
#include "net/host.hpp"
#include "sim/codec.hpp"

namespace scidmz::net {
namespace {

using namespace scidmz::sim::literals;
using testutil::Scenario;

class Capture : public PacketSink {
 public:
  void onPacket(const Packet& p) override { packets.push_back(p); }
  std::vector<Packet> packets;
};

Packet probeTo(Address dst, sim::DataSize payload) {
  Packet p;
  p.flow = FlowKey{Address{}, dst, 99, 7, Protocol::kUdp};
  p.body = ProbeHeader{};
  p.payload = payload;
  return p;
}

/// a --1G-- switch --1G-- b
struct SwitchedPair {
  SwitchedPair(Scenario& s, SwitchProfile profile, LinkParams link = {})
      : sw(s.topo.addSwitch("sw", profile)),
        a(s.topo.addHost("a", Address(10, 0, 0, 1))),
        b(s.topo.addHost("b", Address(10, 0, 0, 2))) {
    s.topo.connect(a, sw, link);
    s.topo.connect(sw, b, link);
    s.topo.computeRoutes();
    b.bind(Protocol::kUdp, 7, capture);
  }
  SwitchDevice& sw;
  Host& a;
  Host& b;
  Capture capture;
};

TEST(Switch, ForwardsBetweenHosts) {
  Scenario s;
  SwitchedPair net{s, SwitchProfile::scienceDmz()};
  net.a.send(probeTo(net.b.address(), 500_B));
  s.simulator.run();
  ASSERT_EQ(net.capture.packets.size(), 1u);
  EXPECT_EQ(net.capture.packets[0].ttl, 63);  // one forwarding hop
}

TEST(Switch, CutThroughFasterThanStoreAndForward) {
  LinkParams link;
  link.rate = 1_Gbps;
  link.delay = 0_ns;

  Scenario s1;
  auto ct = SwitchProfile::scienceDmz();
  ct.mode = ForwardingMode::kCutThrough;
  SwitchedPair n1{s1, ct, link};
  n1.a.send(probeTo(n1.b.address(), 8972_B));
  s1.simulator.run();
  const auto tCut = s1.simulator.now();

  Scenario s2;
  auto sf = SwitchProfile::scienceDmz();
  sf.mode = ForwardingMode::kStoreAndForward;
  SwitchedPair n2{s2, sf, link};
  n2.a.send(probeTo(n2.b.address(), 8972_B));
  s2.simulator.run();
  const auto tStore = s2.simulator.now();

  // Store-and-forward re-serializes the 9000B frame at 1G: +72us.
  EXPECT_EQ((tStore - tCut), 72_us);
}

TEST(Switch, AclDropsDeniedTraffic) {
  Scenario s;
  SwitchedPair net{s, SwitchProfile::scienceDmz()};
  AclTable acl{AclAction::kDeny};
  AclRule permit;
  permit.action = AclAction::kPermit;
  permit.dstPorts = PortRange::single(7);
  acl.append(permit);
  net.sw.setAcl(acl);

  auto ok = probeTo(net.b.address(), 100_B);
  auto blocked = probeTo(net.b.address(), 100_B);
  blocked.flow.dstPort = 8;
  net.a.send(ok);
  net.a.send(blocked);
  s.simulator.run();

  EXPECT_EQ(net.capture.packets.size(), 1u);
  EXPECT_EQ(net.sw.stats().dropsAcl, 1u);
}

TEST(Switch, CheapLanBufferDropsBurst) {
  // 192 KiB shared buffer vs a 1 MB burst arriving at 10G, draining at 1G.
  Scenario s;
  auto& sw = s.topo.addSwitch("sw", SwitchProfile::cheapLan());
  auto& fast = s.topo.addHost("fast", Address(10, 0, 0, 1));
  auto& slow = s.topo.addHost("slow", Address(10, 0, 0, 2));
  LinkParams in;
  in.rate = 10_Gbps;
  LinkParams out;
  out.rate = 1_Gbps;
  s.topo.connect(fast, sw, in);
  // Use the cheap profile's buffer for the congested egress port.
  s.topo.connect(sw, slow, out);
  s.topo.computeRoutes();
  Capture cap;
  slow.bind(Protocol::kUdp, 7, cap);

  const int n = 700;  // ~700 * 1500B = 1.05 MB burst
  for (int i = 0; i < n; ++i) fast.send(probeTo(slow.address(), 1472_B));
  s.simulator.run();

  const auto& egress = sw.interface(1).queue();
  EXPECT_GT(egress.stats().dropped, 0u);
  EXPECT_LT(cap.packets.size(), static_cast<std::size_t>(n));
}

TEST(Switch, ScienceDmzBufferAbsorbsSameBurst) {
  Scenario s;
  auto& sw = s.topo.addSwitch("sw", SwitchProfile::scienceDmz());
  auto& fast = s.topo.addHost("fast", Address(10, 0, 0, 1));
  auto& slow = s.topo.addHost("slow", Address(10, 0, 0, 2));
  LinkParams in;
  in.rate = 10_Gbps;
  LinkParams out;
  out.rate = 1_Gbps;
  s.topo.connect(fast, sw, in);
  s.topo.connect(sw, slow, out);
  s.topo.computeRoutes();
  Capture cap;
  slow.bind(Protocol::kUdp, 7, cap);

  const int n = 700;
  for (int i = 0; i < n; ++i) fast.send(probeTo(slow.address(), 1472_B));
  s.simulator.run();

  EXPECT_EQ(sw.interface(1).queue().stats().dropped, 0u);
  EXPECT_EQ(cap.packets.size(), static_cast<std::size_t>(n));
}

TEST(Switch, FanInDefectLatchesUnderLoadAndFixRestores) {
  // Two 10G senders into one 10G egress: offered load 20G > threshold.
  auto build = [](Scenario& s, bool applyFix) {
    auto profile = SwitchProfile::scienceDmz();
    auto& sw = s.topo.addSwitch("sw", profile);
    FanInDefect defect;
    defect.enabled = true;
    defect.loadThreshold = 2_Gbps;
    defect.defectiveBuffer = 32_KiB;
    sw.setFanInDefect(defect);
    if (applyFix) sw.applyVendorFix();

    auto& h1 = s.topo.addHost("h1", Address(10, 0, 0, 1));
    auto& h2 = s.topo.addHost("h2", Address(10, 0, 0, 2));
    auto& dst = s.topo.addHost("dst", Address(10, 0, 0, 9));
    LinkParams fast;
    fast.rate = 10_Gbps;
    s.topo.connect(h1, sw, fast);
    s.topo.connect(h2, sw, fast);
    s.topo.connect(sw, dst, fast);
    s.topo.computeRoutes();

    auto cap = std::make_unique<Capture>();
    dst.bind(Protocol::kUdp, 7, *cap);
    for (int i = 0; i < 2000; ++i) {
      h1.send(probeTo(dst.address(), 1472_B));
      h2.send(probeTo(dst.address(), 1472_B));
    }
    s.simulator.run();
    return std::pair<SwitchDevice*, std::unique_ptr<Capture>>{&sw, std::move(cap)};
  };

  Scenario broken;
  auto [swBroken, capBroken] = build(broken, false);
  EXPECT_TRUE(swBroken->inDefectiveState());
  EXPECT_GT(swBroken->interface(2).queue().stats().dropped, 0u);

  Scenario fixed;
  auto [swFixed, capFixed] = build(fixed, true);
  EXPECT_FALSE(swFixed->inDefectiveState());
  EXPECT_EQ(swFixed->interface(2).queue().stats().dropped, 0u);
  EXPECT_GT(capFixed->packets.size(), capBroken->packets.size());
}

TEST(Switch, FanInClampFollowsLatchAndVendorFixAcrossRestore) {
  Scenario s;
  const auto profile = SwitchProfile::scienceDmz();
  auto& sw = s.topo.addSwitch("sw", profile);
  FanInDefect defect;
  defect.enabled = true;
  defect.loadThreshold = 2_Gbps;
  defect.defectiveBuffer = 32_KiB;
  sw.setFanInDefect(defect);
  auto& h1 = s.topo.addHost("h1", Address(10, 0, 0, 1));
  auto& h2 = s.topo.addHost("h2", Address(10, 0, 0, 2));
  auto& dst = s.topo.addHost("dst", Address(10, 0, 0, 9));
  LinkParams fast;
  fast.rate = 10_Gbps;
  s.topo.connect(h1, sw, fast);
  s.topo.connect(h2, sw, fast);
  s.topo.connect(sw, dst, fast);
  s.topo.computeRoutes();
  Capture cap;
  dst.bind(Protocol::kUdp, 7, cap);

  auto allQueuesAt = [&sw](sim::DataSize capacity) {
    for (std::size_t i = 0; i < sw.interfaceCount(); ++i) {
      if (sw.interface(i).queue().capacity() != capacity) return false;
    }
    return true;
  };
  auto trickle = [&] {
    h1.send(probeTo(dst.address(), 100_B));
    s.simulator.run();
  };

  trickle();
  ASSERT_FALSE(sw.fallbackLatched());
  EXPECT_TRUE(allQueuesAt(profile.egressBuffer));

  // Mid-run fan-in overload latches the defect and clamps every queue.
  for (int i = 0; i < 1000; ++i) {
    h1.send(probeTo(dst.address(), 1472_B));
    h2.send(probeTo(dst.address(), 1472_B));
  }
  s.simulator.run();
  ASSERT_TRUE(sw.inDefectiveState());
  EXPECT_TRUE(allQueuesAt(defect.defectiveBuffer));
  trickle();
  EXPECT_TRUE(allQueuesAt(defect.defectiveBuffer));

  // The drained, latched switch's snapshot state.
  sim::BitWriter writer;
  sim::Codec save{writer};
  sw.serialize(save);
  const std::vector<std::uint8_t> latched = writer.bytes();
  auto restoreLatched = [&] {
    sim::BitReader reader{latched.data(), latched.size()};
    sim::Codec load{reader};
    sw.serialize(load);
    ASSERT_TRUE(load.ok());
    ASSERT_TRUE(sw.inDefectiveState());
  };

  // The fix lands mid-run; the queues re-expand on the next packet.
  sw.applyVendorFix();
  EXPECT_TRUE(allQueuesAt(defect.defectiveBuffer));
  trickle();
  EXPECT_FALSE(sw.inDefectiveState());
  EXPECT_TRUE(allQueuesAt(profile.egressBuffer));

  // Restored latched: clamped, and the fix re-expands on the next packet
  // even though the last clamp before the restore was already full size.
  restoreLatched();
  EXPECT_TRUE(allQueuesAt(defect.defectiveBuffer));
  sw.applyVendorFix();
  trickle();
  EXPECT_TRUE(allQueuesAt(profile.egressBuffer));

  // Restored latched again: packets keep the clamp until the fix.
  restoreLatched();
  trickle();
  EXPECT_TRUE(allQueuesAt(defect.defectiveBuffer));
  sw.applyVendorFix();
  trickle();
  EXPECT_TRUE(allQueuesAt(profile.egressBuffer));
}

TEST(Switch, TtlExpiryDrops) {
  Scenario s;
  SwitchedPair net{s, SwitchProfile::scienceDmz()};
  auto p = probeTo(net.b.address(), 100_B);
  p.ttl = 0;
  net.a.send(p);
  s.simulator.run();
  EXPECT_EQ(net.capture.packets.size(), 0u);
  EXPECT_EQ(net.sw.stats().dropsTtl, 1u);
}

}  // namespace
}  // namespace scidmz::net
