// Cross-domain determinism suite for sharded execution. The bar: every
// compared artifact — result tables, merged telemetry snapshots, merged
// span exports — is byte-identical at --domains=1, 2 and 8, with and
// without tracing, because all cut-eligible links route through reserved-
// sequence channels at every domain count. Plus the scenario-layer
// boundary edge cases: zero-lookahead rejection, a flow whose path spans
// three domains, a cross-domain link below the lookahead floor, a
// packet handed across a channel field for field in its own slot, a
// teardown with packets in flight across the cut, and the plans the ring's
// and a path's device graphs yield.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/flow.hpp"
#include "net/host.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/topology.hpp"
#include "scenario/engine.hpp"
#include "scenario/harness.hpp"
#include "scenario/observability.hpp"
#include "scenario/partition.hpp"
#include "scenario/registry.hpp"
#include "scenario/shard.hpp"
#include "scenario/spec.hpp"
#include "sim/domain.hpp"
#include "sim/sweep.hpp"
#include "sim/units.hpp"
#include "tcp/connection.hpp"
#include "telemetry/span.hpp"

namespace scidmz::scenario {
namespace {

using namespace scidmz::sim::literals;

/// The catalog's esnet_scale ring cut down to one host per site, run for
/// 120 ms at `domains`.
struct CellResult {
  ScenarioResult result;
  sim::SweepCellStats stats;
};

CellResult runRingAt(int domains) {
  ScenarioSpec spec = ScenarioRegistry::builtin().find("esnet_scale")->specs().at(0);
  spec.topology.ring.hostsPerSite = 1;
  spec.workloads.at(0).runS = 0.12;
  spec.domains = domains;
  sim::SweepRunner sweep{1};
  auto results = sweep.run<ScenarioResult>(
      1, [&](sim::SweepCell& cell) { return runSpec(spec, cell); }, "shard_test");
  CellResult out;
  out.result = results.at(0);
  out.stats = sweep.lastRun().cells.at(0);
  return out;
}

TEST(ShardDeterminism, RingByteIdenticalAt1_2_8Domains) {
  const CellResult d1 = runRingAt(1);
  const CellResult d2 = runRingAt(2);
  const CellResult d8 = runRingAt(8);

  EXPECT_GT(d1.result.at("w0.site0.delivered_bits"), 0.0);
  EXPECT_EQ(d1.result.metrics, d2.result.metrics);
  EXPECT_EQ(d1.result.metrics, d8.result.metrics);
  // With no per-domain samplers in play the event interleaving — and hence
  // the executed count — is identical at every partition.
  EXPECT_EQ(d1.stats.eventsExecuted, d2.stats.eventsExecuted);
  EXPECT_EQ(d1.stats.eventsExecuted, d8.stats.eventsExecuted);

  // Sharded cells report their partition: domains and a per-domain event
  // split that sums to the total.
  EXPECT_EQ(d2.stats.domains, 2u);
  EXPECT_EQ(d8.stats.domains, 8u);
  std::uint64_t sum = 0;
  for (const std::uint64_t e : d8.stats.domainEvents) sum += e;
  EXPECT_EQ(sum, d8.stats.eventsExecuted);
  EXPECT_EQ(d8.stats.domainEvents.size(), 8u);
}

TEST(ShardDeterminism, RingTelemetrySnapshotByteIdenticalAt1_2_8Domains) {
  // Telemetry on (env hook, read at Context construction): the merged
  // snapshot must be byte-identical at every partition.
  ::setenv("SCIDMZ_TELEMETRY", "1", 1);
  const CellResult d1 = runRingAt(1);
  const CellResult d2 = runRingAt(2);
  const CellResult d8 = runRingAt(8);
  ::unsetenv("SCIDMZ_TELEMETRY");

  EXPECT_EQ(d1.result.metrics, d2.result.metrics);
  EXPECT_EQ(d1.result.metrics, d8.result.metrics);
  EXPECT_FALSE(d1.stats.telemetryJson.empty());
  EXPECT_EQ(d1.stats.telemetryJson, d2.stats.telemetryJson);
  EXPECT_EQ(d1.stats.telemetryJson, d8.stats.telemetryJson);

  // Raw event counts are the one artifact telemetry perturbs: every extra
  // domain's hub runs its own sampler, adding exactly the same tick count
  // per domain. The compared artifacts above absorb this (counters are
  // summed by name); the count itself grows linearly.
  ASSERT_GE(d2.stats.eventsExecuted, d1.stats.eventsExecuted);
  const std::uint64_t perDomain = d2.stats.eventsExecuted - d1.stats.eventsExecuted;
  EXPECT_EQ(d8.stats.eventsExecuted - d1.stats.eventsExecuted, 7 * perDomain);
}

TEST(ShardDeterminism, TracedSpanExportByteIdenticalAt1_2_8Domains) {
  auto runTraced = [](int domains) {
    const std::string base =
        ::testing::TempDir() + "shard_test_trace_d" + std::to_string(domains);
    setTraceOutput(base);
    runRingAt(domains);
    telemetry::setProcessTracingEnabled(false);
    std::ifstream in(base + ".cell0.trace.json", std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing span export for domains=" << domains;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const std::string d1 = runTraced(1);
  const std::string d2 = runTraced(2);
  const std::string d8 = runTraced(8);
  setTraceOutput("");  // clear the base for any later test in this binary
  telemetry::setProcessTracingEnabled(false);

  EXPECT_FALSE(d1.empty());
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d8);
  EXPECT_NE(d1.find("scidmz.spans.v2"), std::string::npos);
}

/// sdn_policy_comparison's three cells (always-firewall, IDS-then-bypass,
/// ACL switch) shortened to 1.5 s, run at `domains`, as one comparable
/// string: every result metric plus executed events and forwarded packets
/// per cell. The firewall path's WAN hop is a boundary channel at every
/// domain count, so this covers channel drains feeding a middlebox.
std::string sdnPolicyComparisonAt(int domains) {
  const ScenarioEntry* entry = ScenarioRegistry::builtin().find("sdn_policy_comparison");
  EXPECT_NE(entry, nullptr);
  if (entry == nullptr) return {};
  std::vector<ScenarioSpec> specs = entry->specs();
  for (ScenarioSpec& spec : specs) {
    spec.domains = domains;
    for (WorkloadSpec& w : spec.workloads) {
      w.warmupS = 0.5;
      w.windowS = 1.0;
    }
  }
  sim::SweepRunner sweep{1};
  const auto results = sweep.run<ScenarioResult>(
      specs.size(), [&](sim::SweepCell& cell) { return runSpec(specs[cell.index], cell); },
      "shard_test_sdn");
  std::ostringstream out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::SweepCellStats& stats = sweep.lastRun().cells.at(i);
    if (domains > 1) {
      EXPECT_GT(stats.domains, 1u) << "cell " << i << " did not shard";
    }
    // Every policy moves data (the slowest, always-firewall, ~60 Mbps).
    EXPECT_GT(results[i].get("w0.bps"), 1e7) << "cell " << i;
    out << "cell " << i << " events=" << stats.eventsExecuted
        << " packets=" << stats.packetsForwarded << '\n';
    for (const auto& [name, value] : results[i].metrics) out << name << '=' << value << '\n';
  }
  return out.str();
}

TEST(ShardDeterminism, SdnPolicyComparisonByteIdenticalAt1_2_8Domains) {
  const std::string d1 = sdnPolicyComparisonAt(1);
  EXPECT_EQ(d1, sdnPolicyComparisonAt(2));
  EXPECT_EQ(d1, sdnPolicyComparisonAt(8));
}

/// Each site's router and hosts, as the ring's graph names them.
std::vector<std::string> siteDevices(std::size_t site, std::size_t hosts) {
  std::vector<std::string> names{numberedName("r", site)};
  for (std::size_t j = 0; j < hosts; ++j) {
    names.push_back(numberedName("s", site) + numberedName("h", j));
  }
  return names;
}

TEST(ShardPlan, GraphsYieldSiteBlocksOnTheRingAndTheSplitPath) {
  TopologySpec ring;
  ring.kind = TopologyKind::kRing;  // 8 sites x 4 hosts, WAN segments 10-14 ms
  const DeviceGraph ringGraph = deviceGraph(ring);
  ASSERT_EQ(ringGraph.nodes.size(), 40u);
  for (const int domains : {2, 8}) {
    const ShardPlan plan = planShards(ringGraph, domains, 5_ms);
    ASSERT_EQ(plan.domains, domains);
    ASSERT_EQ(plan.nodeDomain.size(), 40u);
    for (std::size_t site = 0; site < 8; ++site) {
      for (const std::string& name : siteDevices(site, 4)) {
        EXPECT_EQ(plan.nodeDomain.at(name), static_cast<int>(site) * domains / 8)
            << name << " at " << domains;
      }
    }
  }
  // A floor above every WAN delay contracts the whole ring into one atom.
  EXPECT_EQ(planShards(ringGraph, 8, 20_ms).domains, 1);

  // a -10 ms- mid -10 ms- b at 2 domains: the router stays with a.
  TopologySpec path;
  path.path.middlebox = Middlebox::kRouter;
  path.path.link.delayUs = 10000;
  const ShardPlan split = planShards(deviceGraph(path), 2, 5_ms);
  EXPECT_EQ(split.domains, 2);
  const std::map<std::string, int> want{{"a", 0}, {"mid", 0}, {"b", 1}};
  EXPECT_EQ(split.nodeDomain, want);
}

/// A five-device path a — r0 — r1 — r2 — b with 10 ms WAN hops, the flow
/// traversing every device. Hand-written plans let the test pin exact
/// domain assignments (3 domains vs all-in-one).
unsigned long long runThreeDomainPath(int domains) {
  Scenario s{20130101};
  ShardPlan plan;
  plan.domains = domains;
  plan.nodeDomain = {{"a", 0},
                     {"r0", 0},
                     {"r1", domains >= 2 ? 1 : 0},
                     {"r2", domains >= 3 ? 2 : 0},
                     {"b", domains >= 3 ? 2 : 0}};
  attachShards(s, plan, 20130101, 5_ms);

  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& r0 = s.topo.addRouter("r0");
  auto& r1 = s.topo.addRouter("r1");
  auto& r2 = s.topo.addRouter("r2");
  auto& b = s.topo.addHost("b", net::Address(10, 0, 3, 1));
  net::LinkParams lan;
  lan.rate = sim::DataRate::gigabitsPerSecond(10);
  lan.delay = 10_us;
  lan.mtu = 9000_B;
  net::LinkParams wan;
  wan.rate = sim::DataRate::gigabitsPerSecond(100);
  wan.delay = 10_ms;
  wan.mtu = 9000_B;
  s.topo.connect(a, r0, lan);
  s.topo.connect(r0, r1, wan);
  s.topo.connect(r1, r2, wan);
  s.topo.connect(r2, b, wan);  // keep the host edge cut-eligible too
  s.topo.computeRoutes();

  tcp::TcpConfig tcp;
  tcp.algorithm = tcp::CcAlgorithm::kHtcp;
  tcp.sndBuf = sim::DataSize::mebibytes(32);
  tcp.rcvBuf = sim::DataSize::mebibytes(32);
  net::FlowFactory::Options options;
  options.port = 5001;
  options.fidelity = net::FlowFidelity::kPacket;
  auto flow = net::flowFactory(a.ctx()).create(a, b, tcp, options);
  auto* raw = flow.get();
  flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
  flow->start();
  s.runFor(400_ms);
  return static_cast<unsigned long long>(flow->deliveredBytes().byteCount());
}

TEST(ShardDeterminism, FlowSpanningThreeDomainsMatchesSingleDomain) {
  const unsigned long long one = runThreeDomainPath(1);
  const unsigned long long three = runThreeDomainPath(3);
  EXPECT_GT(one, 0u);
  EXPECT_EQ(one, three);
}

/// Appends "deliver" to the shared log when a probe arrives.
class DeliveryLog : public net::PacketSink {
 public:
  explicit DeliveryLog(std::vector<std::string>& log) : log_(log) {}
  void onPacket(const net::Packet&) override { log_.push_back("deliver"); }

 private:
  std::vector<std::string>& log_;
};

/// One probe a -> b over a 10 ms channel link, plus a local event in b's
/// domain due at exactly the delivery time and scheduled only after the
/// channel has drained. Returns the order both fired in.
std::vector<std::string> channelTieAt(int domains) {
  Scenario s{1};
  ShardPlan plan;
  plan.domains = domains;
  plan.nodeDomain = {{"a", 0}, {"b", domains - 1}};
  attachShards(s, plan, 1, 5_ms);
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  net::LinkParams p;
  p.rate = sim::DataRate::gigabitsPerSecond(1);
  p.delay = 10_ms;
  s.topo.connect(a, b, p);
  s.topo.computeRoutes();
  std::vector<std::string> log;
  DeliveryLog sink{log};
  b.bind(net::Protocol::kUdp, 7, sink);

  net::Packet probe;
  probe.flow = net::FlowKey{a.address(), b.address(), 99, 7, net::Protocol::kUdp};
  probe.body = net::ProbeHeader{};
  probe.payload = sim::DataSize::bytes(1472);  // 1500 B on the wire: 12 us
  a.send(std::move(probe));
  const sim::SimTime arrival = sim::SimTime::zero() + 12_us + 10_ms;
  sim::Simulator& bsim = b.ctx().sim();
  bsim.scheduleAt(sim::SimTime::zero() + 9_ms, [&] {
    bsim.scheduleAt(arrival, [&] { log.push_back("local"); });
  });
  s.runFor(20_ms);
  return log;
}

TEST(ShardDeterminism, ChannelDeliverySortsAfterSameTimeLocalEventAt1And2Domains) {
  // The drained delivery keeps its boundary-band key, so it sorts after
  // local work due at the same instant, whenever that work was scheduled.
  const std::vector<std::string> want{"local", "deliver"};
  EXPECT_EQ(channelTieAt(1), want);
  EXPECT_EQ(channelTieAt(2), want);
}

/// Copies every packet that reaches it, with its arrival time and the
/// address of the slot it arrived in.
class PacketLog : public net::PacketSink {
 public:
  explicit PacketLog(sim::Simulator& sim) : sim_(sim) {}
  void onPacket(const net::Packet& packet) override {
    got.emplace_back(sim_.now(), packet);
    slots.push_back(&packet);
  }

  std::vector<std::pair<sim::SimTime, net::Packet>> got;
  std::vector<const net::Packet*> slots;

 private:
  sim::Simulator& sim_;
};

TEST(ShardChannel, CrossedHandleKeepsEveryFieldAndItsSlotUntilTheDestinationReleasesIt) {
  Scenario s{1};
  ShardPlan plan;
  plan.domains = 2;
  plan.nodeDomain = {{"a", 0}, {"b", 1}};
  attachShards(s, plan, 1, 5_ms);
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  net::LinkParams p;
  p.rate = sim::DataRate::gigabitsPerSecond(1);
  p.delay = 10_ms;
  p.mtu = 9000_B;
  s.topo.connect(a, b, p);
  s.topo.computeRoutes();
  PacketLog log{b.ctx().sim()};
  b.bind(net::Protocol::kTcp, 5001, log);

  // Three segments, each field distinct per packet; the last carries all
  // three SACK blocks. Sent straight to the interface so the ids are ours.
  net::PacketPool& srcPool = a.ctx().pool();
  net::PacketPool& dstPool = b.ctx().pool();
  const std::size_t liveBefore = srcPool.liveCount();
  const std::size_t dstBefore = dstPool.liveCount();
  std::vector<net::Packet> sent;
  std::vector<const net::Packet*> slots;
  for (int i = 0; i < 3; ++i) {
    net::Packet pk;
    pk.flow = net::FlowKey{a.address(), b.address(), 40000, 5001, net::Protocol::kTcp};
    pk.payload = sim::DataSize::bytes(1000 + 100 * i);
    pk.ttl = static_cast<std::uint8_t>(60 - i);
    pk.id = 7000 + static_cast<std::uint64_t>(i);
    net::TcpHeader h;
    h.seq = 1'000'000 + 10 * static_cast<std::uint64_t>(i);
    h.ackNo = 5'000'000 + static_cast<std::uint64_t>(i);
    h.tsVal = 111 + static_cast<std::uint64_t>(i);
    h.tsEcho = 222 + static_cast<std::uint64_t>(i);
    for (int k = 0; k <= i; ++k) {
      const std::uint64_t start = h.ackNo + 100 * static_cast<std::uint64_t>(k + 1);
      ASSERT_TRUE(h.addSack(start, start + 50));
    }
    h.windowField = static_cast<std::uint16_t>(4000 + i);
    h.windowScale = static_cast<std::uint8_t>(7 + i);
    h.syn = i == 0;
    h.ack = true;
    h.fin = i == 2;
    h.rst = i == 1;
    h.windowScalePresent = i == 0;
    pk.body = h;
    sent.push_back(pk);
    net::PacketRef ref = srcPool.acquire(net::Packet{pk});
    slots.push_back(ref.get());
    a.interface(0).send(std::move(ref));
  }

  // Serialization ends within the first millisecond: the packets sit staged
  // in the channel, still in their source-pool slots.
  sim::ShardedSimulator& sharded = *s.shards->sharded;
  s.runFor(1_ms);
  EXPECT_EQ(sharded.pendingChannelMessages(), 3u);
  EXPECT_EQ(srcPool.liveCount(), liveBefore + 3);
  EXPECT_TRUE(log.got.empty());

  // b drains the channel at its next epoch start: the handles move onto the
  // link's delay line as they are. No copy is made in b's pool, the source
  // slots stay taken, and nothing has arrived yet.
  s.runFor(1_ms);
  EXPECT_EQ(sharded.pendingChannelMessages(), 0u);
  EXPECT_EQ(srcPool.liveCount(), liveBefore + 3);
  EXPECT_EQ(dstPool.liveCount(), dstBefore);
  EXPECT_TRUE(log.got.empty());

  // Delivered in the slots they were sent in; once b has let go of them,
  // the slots are back in a's pool.
  s.runFor(20_ms);
  ASSERT_EQ(log.got.size(), sent.size());
  EXPECT_EQ(log.slots, slots);
  EXPECT_EQ(srcPool.liveCount(), liveBefore);
  EXPECT_EQ(dstPool.liveCount(), dstBefore);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    SCOPED_TRACE("packet " + std::to_string(i));
    const auto& [at, got] = log.got[i];
    const net::Packet& want = sent[i];
    EXPECT_GE(at, sim::SimTime::zero() + 10_ms);
    if (i > 0) {
      EXPECT_LT(log.got[i - 1].first, at);  // (at, seq) order
    }
    EXPECT_EQ(got.flow, want.flow);
    EXPECT_EQ(got.payload, want.payload);
    EXPECT_EQ(got.ttl, want.ttl);
    EXPECT_EQ(got.id, want.id);
    ASSERT_TRUE(got.isTcp());
    const net::TcpHeader& g = got.tcp();
    const net::TcpHeader& w = want.tcp();
    EXPECT_EQ(g.seq, w.seq);
    EXPECT_EQ(g.ackNo, w.ackNo);
    EXPECT_EQ(g.tsVal, w.tsVal);
    EXPECT_EQ(g.tsEcho, w.tsEcho);
    EXPECT_EQ(g.sackCount, w.sackCount);
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(g.sackBlocks[k].start, w.sackBlocks[k].start) << "sack " << k;
      EXPECT_EQ(g.sackBlocks[k].end, w.sackBlocks[k].end) << "sack " << k;
    }
    EXPECT_EQ(g.windowField, w.windowField);
    EXPECT_EQ(g.windowScale, w.windowScale);
    EXPECT_EQ(g.syn, w.syn);
    EXPECT_EQ(g.ack, w.ack);
    EXPECT_EQ(g.fin, w.fin);
    EXPECT_EQ(g.rst, w.rst);
    EXPECT_EQ(g.windowScalePresent, w.windowScalePresent);
  }
}

TEST(ShardChannel, TeardownWithPacketsInFlightBothWaysAcrossTheCut) {
  // Mid-transfer, each domain's delay line holds handles into the other
  // domain's pool, and the channels may hold staged ones. Destroying the
  // scenario releases every one of them into a pool that is still alive:
  // the topology (lines, queues, channels) goes before any domain's pool.
  // Run under ASan, a pool destroyed first is a use after free.
  Scenario s{1};
  ShardPlan plan;
  plan.domains = 2;
  plan.nodeDomain = {{"a", 0}, {"b", 1}};
  attachShards(s, plan, 1, 5_ms);
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  net::LinkParams p;
  p.rate = sim::DataRate::gigabitsPerSecond(1);
  p.delay = 10_ms;
  p.mtu = 9000_B;
  s.topo.connect(a, b, p);
  s.topo.computeRoutes();

  tcp::TcpConfig tcp;
  tcp.algorithm = tcp::CcAlgorithm::kHtcp;
  tcp.sndBuf = sim::DataSize::mebibytes(8);
  tcp.rcvBuf = sim::DataSize::mebibytes(8);
  net::FlowFactory::Options options;
  options.fidelity = net::FlowFidelity::kPacket;
  std::vector<net::FlowPtr> flows;
  for (auto [src, dst, port] : {std::tuple{&a, &b, 5001}, std::tuple{&b, &a, 5002}}) {
    options.port = static_cast<std::uint16_t>(port);
    auto flow = net::flowFactory(src->ctx()).create(*src, *dst, tcp, options);
    auto* raw = flow.get();
    flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
    flow->start();
    flows.push_back(std::move(flow));
  }
  s.runFor(150_ms);
  const net::Link& link = *s.topo.links().front();
  EXPECT_GT(link.inFlight(0), 0u);
  EXPECT_GT(link.inFlight(1), 0u);
  EXPECT_GT(a.ctx().pool().liveCount(), link.inFlight(0));
  EXPECT_GT(b.ctx().pool().liveCount(), link.inFlight(1));
}

TEST(ShardEdgeCases, ZeroLookaheadIsRejected) {
  Scenario s{1};
  ShardPlan plan;
  plan.domains = 2;
  plan.nodeDomain = {{"a", 0}, {"b", 1}};
  EXPECT_THROW(attachShards(s, plan, 1, sim::Duration::zero()), std::invalid_argument);
}

TEST(ShardEdgeCases, CrossDomainLinkBelowFloorIsRejected) {
  Scenario s{1};
  ShardPlan plan;
  plan.domains = 2;
  plan.nodeDomain = {{"a", 0}, {"b", 1}};
  attachShards(s, plan, 1, 5_ms);
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  net::LinkParams p;
  p.rate = sim::DataRate::gigabitsPerSecond(10);
  p.delay = 1_ms;  // below the 5 ms floor, yet a and b sit in different domains
  p.mtu = 9000_B;
  EXPECT_THROW(s.topo.connect(a, b, p), std::runtime_error);
}

}  // namespace
}  // namespace scidmz::scenario
