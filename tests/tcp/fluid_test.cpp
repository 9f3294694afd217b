// Fluid (analytic) flow engine: the response function, the flow lifecycle
// through the unified FlowHandle, and the packet/fluid capacity coupling.
#include "tcp/fluid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "../tcp/tcp_test_util.hpp"
#include "net/flow.hpp"
#include "net/loss.hpp"
#include "sim/codec.hpp"
#include "tcp/mathis.hpp"

namespace scidmz::tcp {
namespace {

using namespace scidmz::sim::literals;
using testutil::PathConfig;
using testutil::TcpPath;

net::FlowPtr makeFluidFlow(TcpPath& path, const TcpConfig& cfg, std::uint16_t port,
                           int streams = 1) {
  net::FlowFactory::Options options;
  options.port = port;
  options.streams = streams;
  options.fidelity = net::FlowFidelity::kFluid;
  return net::flowFactory(path.scenario.ctx).create(*path.a, *path.b, cfg, options);
}

/// Steady-state rate of one handle: warmup, then delivered-delta / window.
sim::DataRate steadyRate(TcpPath& path, net::FlowHandle& flow, sim::Duration warmup,
                         sim::Duration window) {
  path.scenario.simulator.runFor(warmup);
  const auto base = flow.deliveredBytes();
  path.scenario.simulator.runFor(window);
  const auto delta = flow.deliveredBytes() - base;
  return sim::DataRate::bitsPerSecond(
      static_cast<std::uint64_t>(static_cast<double>(delta.bitCount()) / window.toSeconds()));
}

// --- the response function -------------------------------------------------

TEST(CcResponse, RenoIsCalibratedMathisEquation) {
  const double mssBits = 8960.0 * 8.0;
  const double rtt = 0.05;
  const double p = 1e-4;
  const double mathis = static_cast<double>(mathisThroughput(8960_B, 50_ms, p).bps());
  const double got = ccResponseBps(CcAlgorithm::kReno, mssBits, rtt, p);
  EXPECT_NEAR(got / mathis, kRenoCalibration, 0.01);
}

TEST(CcResponse, ZeroLossIsNeverTheBindingConstraint) {
  EXPECT_GT(ccResponseBps(CcAlgorithm::kReno, 8960.0 * 8.0, 0.05, 0.0), 1e29);
  EXPECT_GT(ccResponseBps(CcAlgorithm::kHtcp, 8960.0 * 8.0, 0.05, -1.0), 1e29);
}

TEST(CcResponse, HtcpBeatsRenoUnderLoss) {
  const double mssBits = 8960.0 * 8.0;
  const double reno = ccResponseBps(CcAlgorithm::kReno, mssBits, 0.1, 1e-3);
  const double htcp = ccResponseBps(CcAlgorithm::kHtcp, mssBits, 0.1, 1e-3);
  const double cubic = ccResponseBps(CcAlgorithm::kCubic, mssBits, 0.1, 1e-3);
  EXPECT_GT(htcp, reno);
  EXPECT_GE(cubic, reno);
}

// --- flow lifecycle --------------------------------------------------------

TEST(FluidFlow, DeliversExactByteCountAndCompletes) {
  TcpPath path;
  auto flow = makeFluidFlow(path, TcpConfig::tunedDtn(), 5001);
  bool established = false;
  bool complete = false;
  auto* raw = flow.get();
  flow->onEstablished = [&] { established = true; raw->sendData(8_MB); };
  flow->onSendComplete = [&] { complete = true; };
  flow->start();
  path.scenario.simulator.run();
  EXPECT_TRUE(established);
  EXPECT_TRUE(complete);
  EXPECT_TRUE(flow->established());
  EXPECT_TRUE(flow->sendComplete());
  EXPECT_EQ(flow->deliveredBytes(), 8_MB);
  EXPECT_EQ(flow->fidelity(), net::FlowFidelity::kFluid);
  EXPECT_EQ(flow->clientConnection(0), nullptr);  // no packet state exists
}

TEST(FluidFlow, CleanPathRunsNearBottleneck) {
  PathConfig cfg;
  cfg.rate = 10_Gbps;
  cfg.oneWayDelay = 500_us;
  TcpPath path{cfg};
  auto flow = makeFluidFlow(path, TcpConfig::tunedDtn(), 5001);
  auto* raw = flow.get();
  flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(100)); };
  flow->start();
  const auto rate = steadyRate(path, *flow, 2_s, 5_s);
  EXPECT_GT(rate.toGbps(), 9.0);
  EXPECT_LE(rate.toGbps(), 10.0);
}

TEST(FluidFlow, LossyPathTracksTheResponseFunction) {
  PathConfig cfg;
  cfg.rate = 10_Gbps;
  cfg.oneWayDelay = 5_ms;  // 10 ms RTT
  cfg.randomLoss = 1e-3;
  TcpPath path{cfg};
  TcpConfig tcp = TcpConfig::tunedDtn();
  tcp.algorithm = CcAlgorithm::kReno;
  auto flow = makeFluidFlow(path, tcp, 5001);
  auto* raw = flow.get();
  flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(100)); };
  flow->start();
  const auto rate = steadyRate(path, *flow, 2_s, 10_s);
  const double predictedMbps =
      ccResponseBps(CcAlgorithm::kReno, 8960.0 * 8.0, 10e-3, 1e-3) / 1e6;
  EXPECT_NEAR(rate.toMbps() / predictedMbps, 1.0, 0.05);
}

TEST(FluidFlow, ParallelStreamsMultiplyTheLossBound) {
  PathConfig cfg;
  cfg.rate = 10_Gbps;
  cfg.oneWayDelay = 5_ms;
  cfg.randomLoss = 1e-3;
  TcpPath path{cfg};
  TcpConfig tcp = TcpConfig::tunedDtn();
  tcp.algorithm = CcAlgorithm::kReno;
  auto flow = makeFluidFlow(path, tcp, 5001, /*streams=*/4);
  auto* raw = flow.get();
  flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(100)); };
  flow->start();
  const auto rate = steadyRate(path, *flow, 2_s, 10_s);
  const double oneStreamMbps =
      ccResponseBps(CcAlgorithm::kReno, 8960.0 * 8.0, 10e-3, 1e-3) / 1e6;
  EXPECT_NEAR(rate.toMbps() / (4.0 * oneStreamMbps), 1.0, 0.05);
}

TEST(FluidFlow, AbortWithdrawsDemand) {
  TcpPath path;
  auto& engine = path.scenario.ctx.extension<FluidEngine>();
  auto flow = makeFluidFlow(path, TcpConfig::tunedDtn(), 5001);
  auto* raw = flow.get();
  flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(100)); };
  flow->start();
  path.scenario.simulator.runFor(1_s);
  EXPECT_EQ(engine.activeFlowCount(), 1u);
  flow->abort();
  path.scenario.simulator.runFor(1_s);
  EXPECT_EQ(engine.activeFlowCount(), 0u);
}

// --- the active set ---------------------------------------------------------
//
// A rate recompute visits only the flows in flight at the previous one plus
// the flows woken since (established, or given more data). These read each
// handle's engine id and drive the engine directly, so flow ids, and with
// them slot recycling, are visible; the engine calls the owning handle.

FluidEngine::FlowId engineId(const net::FlowPtr& flow) {
  return static_cast<FluidFlowHandle&>(*flow).id();
}

TEST(FluidActiveSet, DrainedFlowGivenMoreDataRunsAgainAndCompletesExactly) {
  TcpPath path;
  auto& engine = path.scenario.ctx.extension<FluidEngine>();
  auto flow = makeFluidFlow(path, TcpConfig::tunedDtn(), 5001);
  const auto id = engineId(flow);
  int completions = 0;
  flow->onEstablished = [&engine, id] { engine.queueData(id, 4_MB); };
  flow->onSendComplete = [&completions] { ++completions; };
  engine.startFlow(id);
  path.scenario.simulator.run();  // ends once the drained flow stops the ticker
  ASSERT_TRUE(engine.sendComplete(id));
  EXPECT_EQ(engine.deliveredBytes(id), 4_MB);
  EXPECT_EQ(engine.currentRate(id), sim::DataRate::zero());
  EXPECT_EQ(engine.activeFlowCount(), 0u);

  engine.queueData(id, 6_MB);
  EXPECT_FALSE(engine.sendComplete(id));
  EXPECT_EQ(engine.activeFlowCount(), 1u);
  EXPECT_GT(engine.currentRate(id).bps(), 0u);
  path.scenario.simulator.run();
  EXPECT_TRUE(engine.sendComplete(id));
  EXPECT_EQ(engine.deliveredBytes(id), 10_MB);
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(engine.currentRate(id), sim::DataRate::zero());
}

TEST(FluidActiveSet, RecycledSlotBelowInFlightFlowsIsPickedUp) {
  TcpPath path;
  auto& engine = path.scenario.ctx.extension<FluidEngine>();
  auto& simulator = path.scenario.simulator;
  const TcpConfig cfg = TcpConfig::tunedDtn();
  auto startBulk = [&engine](net::FlowHandle& flow, FluidEngine::FlowId id,
                             sim::DataSize bytes) {
    flow.onEstablished = [&engine, id, bytes] { engine.queueData(id, bytes); };
    engine.startFlow(id);
  };
  auto firstFlow = makeFluidFlow(path, cfg, 5001);
  auto secondFlow = makeFluidFlow(path, cfg, 5002);
  const auto first = engineId(firstFlow);
  const auto second = engineId(secondFlow);
  startBulk(*firstFlow, first, 1_TB);
  startBulk(*secondFlow, second, 1_TB);
  simulator.runFor(100_ms);
  ASSERT_GT(engine.currentRate(first).bps(), 0u);
  ASSERT_GT(engine.currentRate(second).bps(), 0u);

  firstFlow->abort();  // removes the engine flow
  auto recycledFlow = makeFluidFlow(path, cfg, 5003);
  const auto recycled = engineId(recycledFlow);
  ASSERT_EQ(recycled, first);  // a lower id than the flow still in flight
  ASSERT_LT(recycled, second);
  // The next tick passes over the removed flow's stale active entry; the
  // new flow in that slot has not started, so it must stay idle.
  simulator.runFor(20_ms);
  EXPECT_EQ(engine.currentRate(recycled), sim::DataRate::zero());
  EXPECT_EQ(engine.activeFlowCount(), 1u);

  bool complete = false;
  recycledFlow->onSendComplete = [&complete] { complete = true; };
  startBulk(*recycledFlow, recycled, 8_MB);
  while (!engine.established(recycled)) simulator.runFor(1_ms);
  simulator.runFor(20_ms);
  EXPECT_GT(engine.currentRate(recycled).bps(), 0u);
  EXPECT_EQ(engine.activeFlowCount(), 2u);
  simulator.runFor(2_s);
  EXPECT_TRUE(complete);
  EXPECT_EQ(engine.deliveredBytes(recycled), 8_MB);
  EXPECT_EQ(engine.currentRate(recycled), sim::DataRate::zero());
  EXPECT_GT(engine.currentRate(second).bps(), 0u);
  EXPECT_EQ(engine.activeFlowCount(), 1u);

  secondFlow->abort();
  simulator.runFor(20_ms);
  EXPECT_EQ(engine.currentRate(second), sim::DataRate::zero());
  EXPECT_EQ(engine.activeFlowCount(), 0u);
}

// --- snapshot decoding -------------------------------------------------------
//
// FluidEngine::serialize's active list indexes the hot arrays on the first
// tick after a restore, so a blob whose section CRC is intact but whose
// active list is impossible must be refused, not trusted.

/// Three fluid bulk flows, established and sending.
struct ActivePath {
  TcpPath path;
  std::vector<net::FlowPtr> flows;
  ActivePath() {
    for (std::uint16_t port = 5001; port <= 5003; ++port) {
      auto flow = makeFluidFlow(path, TcpConfig::tunedDtn(), port);
      auto* raw = flow.get();
      flow->onEstablished = [raw] { raw->sendData(1_TB); };
      flow->start();
      flows.push_back(std::move(flow));
    }
  }
  FluidEngine& engine() { return path.scenario.ctx.extension<FluidEngine>(); }
};

/// Where the active list sits in a "FLU " section holding one engine's
/// serialize stream: bit offsets of its count and of what follows
/// active_left_, plus the decoded entries. Mirrors the write order.
struct ActiveList {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::vector<std::pair<std::uint32_t, bool>> entries;
  std::uint64_t left = 0;
};

ActiveList findActiveList(const std::vector<std::uint8_t>& blob) {
  sim::BitReader r(blob.data(), blob.size());
  (void)r.enterSection("FLU ");
  // One letter per field: b bool, v varint, d f64, s string, t timer.
  const auto skip = [&r](std::string_view fields) {
    for (const char f : fields) {
      if (f == 'b') (void)r.readBool();
      if (f == 'v') (void)r.readVarint();
      if (f == 'd') (void)r.readF64();
      if (f == 's') (void)r.readString();
      if (f == 't' && r.readBool()) {  // armed: time, sequence
        (void)r.readVarint();
        (void)r.readVarint();
      }
    }
  };
  skip("b");  // bound
  for (std::uint64_t n = r.readVarint(); n > 0; --n) skip("bvbbbvvvddvvt");  // flows
  for (std::uint64_t n = r.readVarint(); n > 0; --n) skip("v");              // free ids
  for (std::uint64_t n = r.readVarint(); n > 0; --n) skip("svvddddd");       // link dirs
  ActiveList out;
  out.begin = r.bitPos();
  for (std::uint64_t n = r.readVarint(); n > 0; --n) {
    const auto idx = static_cast<std::uint32_t>(r.readVarint());
    out.entries.emplace_back(idx, r.readBool());
  }
  out.left = r.readVarint();
  out.end = r.bitPos();
  EXPECT_TRUE(r.ok());
  return out;
}

/// `blob` with its active list replaced, re-framed so the CRC matches.
std::vector<std::uint8_t> withActiveList(const std::vector<std::uint8_t>& blob,
                                         const ActiveList& at,
                                         const std::vector<std::pair<std::uint32_t, bool>>& entries,
                                         std::uint64_t left) {
  sim::BitReader r(blob.data(), blob.size());
  (void)r.enterSection("FLU ");
  sim::BitWriter w;
  const auto cookie = w.beginSection("FLU ");
  const auto copyTo = [&r, &w](std::size_t bit) {
    while (r.bitPos() < bit) {
      const int n = static_cast<int>(std::min<std::size_t>(64, bit - r.bitPos()));
      w.writeBits(r.readBits(n), n);
    }
  };
  copyTo(at.begin);
  w.writeVarint(entries.size());
  for (const auto& [idx, notify] : entries) {
    w.writeVarint(idx);
    w.writeBool(notify);
  }
  w.writeVarint(left);
  while (r.bitPos() < at.end) (void)r.readBits(1);
  copyTo(blob.size() * 8);
  w.endSection(cookie);
  return w.take();
}

/// Restore `blob` into a freshly built twin of the path `from` ran.
bool restoresInto(const std::vector<std::uint8_t>& blob, const sim::Simulator& from) {
  ActivePath twin;
  twin.path.scenario.simulator.beginRestore(from.now(), from.eventsExecuted(),
                                            from.scheduledTotal());
  sim::BitReader r(blob.data(), blob.size());
  (void)r.enterSection("FLU ");
  sim::Codec c(r);
  (void)twin.engine().serialize(c);
  return c.ok();
}

TEST(FluidSnapshot, ImpossibleActiveListIsRefused) {
  ActivePath original;
  original.path.scenario.simulator.runFor(50_ms);
  ASSERT_EQ(original.engine().activeFlowCount(), 3u);
  sim::BitWriter w;
  const auto cookie = w.beginSection("FLU ");
  sim::Codec c(w);
  (void)original.engine().serialize(c);
  w.endSection(cookie);
  const std::vector<std::uint8_t> blob = w.take();
  const sim::Simulator& ran = original.path.scenario.simulator;

  const ActiveList at = findActiveList(blob);
  ASSERT_EQ(at.entries.size(), 3u);
  ASSERT_EQ(at.left, 3u);
  // Splicing the list back unchanged gives the same bytes, which restore.
  ASSERT_EQ(withActiveList(blob, at, at.entries, at.left), blob);
  ASSERT_TRUE(restoresInto(blob, ran));

  const struct {
    std::vector<std::pair<std::uint32_t, bool>> entries;
    std::uint64_t left;
    const char* why;
  } cases[] = {
      {{{0, false}, {1, false}, {2, false}, {3, false}}, 4, "more entries than flows"},
      {{{0, false}, {1, false}, {3, false}}, 3, "index past the last flow"},
      {{{0, false}, {2, false}, {1, false}}, 3, "indices out of order"},
      {{{0, false}, {1, false}, {1, false}}, 3, "repeated index"},
      {at.entries, 4, "active_left_ above the count"},
  };
  for (const auto& bad : cases) {
    EXPECT_FALSE(restoresInto(withActiveList(blob, at, bad.entries, bad.left), ran)) << bad.why;
  }
}

// --- the route table --------------------------------------------------------
//
// A flow's traced path is interned by content: flows on one path share one
// route, and a route change between creations gives later flows the new one.

TEST(FluidRoutes, FlowsOnOnePathShareOneRoute) {
  testutil::Scenario s;
  auto& agg = s.topo.addSwitch("agg");
  auto& sink = s.topo.addHost("sink", net::Address(10, 0, 0, 99));
  net::LinkParams params;
  s.topo.connect(agg, sink, params);
  std::vector<net::Host*> senders;
  for (int i = 0; i < 4; ++i) {
    auto& h = s.topo.addHost(std::string("h").append(std::to_string(i)),
                             net::Address(10, 0, 1, static_cast<std::uint8_t>(i + 1)));
    s.topo.connect(h, agg, params);
    senders.push_back(&h);
  }
  s.topo.computeRoutes();
  auto& engine = s.ctx.extension<FluidEngine>();
  const TcpConfig cfg = TcpConfig::tunedDtn();
  std::vector<net::FlowPtr> flows;
  for (int k = 0; k < 100; ++k) {
    net::FlowFactory::Options options;
    options.port = static_cast<std::uint16_t>(1024 + k);
    options.fidelity = net::FlowFidelity::kFluid;
    flows.push_back(net::flowFactory(s.ctx).create(*senders[static_cast<std::size_t>(k % 4)],
                                                   sink, cfg, options));
  }
  EXPECT_EQ(engine.routeCount(), 4u);
  // A packet flow on one of those paths registers the same route.
  net::FlowFactory::Options packetOptions;
  packetOptions.port = 5001;
  auto packet = net::flowFactory(s.ctx).create(*senders[2], sink, cfg, packetOptions);
  packet->start();
  EXPECT_EQ(engine.routeCount(), 4u);
  // Flows on a shared route still establish and run independently.
  for (auto& f : flows) f->start();
  s.simulator.runFor(100_ms);
  for (const auto& f : flows) EXPECT_TRUE(f->established());
}

TEST(FluidRoutes, RerouteBetweenCreationsGivesLaterFlowsTheNewPath) {
  testutil::Scenario s;
  net::LinkParams edge;
  edge.delay = 1_ms;
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  auto& r1 = s.topo.addRouter("r1");
  auto& r2 = s.topo.addRouter("r2");
  s.topo.connect(a, r1, edge);
  net::LinkParams fastParams = edge;
  fastParams.delay = 2_ms;
  net::Link& fast = s.topo.connect(r1, r2, fastParams);
  net::LinkParams slowParams = edge;
  slowParams.delay = 20_ms;
  net::Link& slow = s.topo.connect(r1, r2, slowParams);
  slow.setLossModel(0, std::make_unique<net::RandomLoss>(1e-3, s.rng.fork(77)));
  s.topo.connect(r2, b, edge);
  s.topo.computeRoutes();
  auto routeVia = [&](net::Link& link) {
    r1.clearRoutes();
    r1.addRoute(net::Prefix(b.address(), 32), link.end(0).index());
  };

  TcpConfig cfg = TcpConfig::tunedDtn();
  cfg.algorithm = CcAlgorithm::kReno;
  net::FlowFactory::Options options;
  options.fidelity = net::FlowFidelity::kFluid;
  routeVia(fast);
  options.port = 5001;
  auto before = net::flowFactory(s.ctx).create(a, b, cfg, options);
  routeVia(slow);
  options.port = 5002;
  auto after = net::flowFactory(s.ctx).create(a, b, cfg, options);
  EXPECT_EQ(s.ctx.extension<FluidEngine>().routeCount(), 2u);

  // Establishment takes one traced RTT: 2 x (1 + 2 + 1) ms on the fast
  // path, 2 x (1 + 20 + 1) ms on the slow one.
  sim::SimTime beforeUp;
  sim::SimTime afterUp;
  auto* beforeRaw = before.get();
  auto* afterRaw = after.get();
  before->onEstablished = [&] {
    beforeUp = s.simulator.now();
    beforeRaw->sendData(4_MB);
  };
  after->onEstablished = [&] {
    afterUp = s.simulator.now();
    afterRaw->sendData(4_MB);
  };
  before->start();
  after->start();
  s.simulator.runFor(5_s);
  EXPECT_EQ(beforeUp - sim::SimTime::zero(), 8_ms);
  EXPECT_EQ(afterUp - sim::SimTime::zero(), 44_ms);
  // Only the later flow carries the lossy path's drop rate.
  ASSERT_TRUE(before->sendComplete());
  ASSERT_TRUE(after->sendComplete());
  EXPECT_EQ(before->retransmits(), 0u);
  EXPECT_GT(after->retransmits(), 0u);
}

// --- packet/fluid coupling -------------------------------------------------

TEST(HybridFidelity, FluidAndPacketFlowsShareTheBottleneck) {
  PathConfig cfg;
  cfg.rate = 10_Gbps;
  cfg.oneWayDelay = 500_us;
  TcpPath path{cfg};
  const TcpConfig tcp = TcpConfig::tunedDtn();

  net::FlowFactory::Options packetOptions;
  packetOptions.port = 5001;
  auto packetFlow = net::flowFactory(path.scenario.ctx).create(*path.a, *path.b, tcp,
                                                               packetOptions);
  auto* packetRaw = packetFlow.get();
  packetFlow->onEstablished = [packetRaw] {
    packetRaw->sendData(sim::DataSize::terabytes(100));
  };
  packetFlow->start();

  std::vector<net::FlowPtr> fluidFlows;
  for (int i = 0; i < 3; ++i) {
    auto f = makeFluidFlow(path, tcp, static_cast<std::uint16_t>(6000 + i));
    auto* raw = f.get();
    f->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(100)); };
    f->start();
    fluidFlows.push_back(std::move(f));
  }

  path.scenario.simulator.runFor(3_s);
  const auto packetBase = packetFlow->deliveredBytes();
  std::vector<sim::DataSize> fluidBase;
  for (const auto& f : fluidFlows) fluidBase.push_back(f->deliveredBytes());
  path.scenario.simulator.runFor(5_s);

  const double packetBits =
      static_cast<double>((packetFlow->deliveredBytes() - packetBase).bitCount());
  double fluidBits = 0.0;
  for (std::size_t i = 0; i < fluidFlows.size(); ++i) {
    fluidBits +=
        static_cast<double>((fluidFlows[i]->deliveredBytes() - fluidBase[i]).bitCount());
  }
  const double packetGbps = packetBits / 5.0 / 1e9;
  const double fluidGbps = fluidBits / 5.0 / 1e9;

  // Both sides carry real traffic, the packet flow is pushed well below
  // line rate, and the total stays at (or under) the 10G bottleneck.
  EXPECT_GT(packetGbps, 0.5);
  EXPECT_GT(fluidGbps, 2.0);
  EXPECT_LT(packetGbps, 8.0);
  EXPECT_LT(packetGbps + fluidGbps, 10.5);
  EXPECT_GT(packetGbps + fluidGbps, 7.0);
}

TEST(HybridFidelity, PacketOnlyContextNeverTicksTheEngine) {
  // A packet-fidelity flow must not arm the fluid ticker: goldens depend on
  // the event stream staying byte-identical when no fluid flow exists.
  TcpPath path;
  net::FlowFactory::Options options;
  options.port = 5001;
  auto flow = net::flowFactory(path.scenario.ctx).create(*path.a, *path.b,
                                                         TcpConfig::tunedDtn(), options);
  auto* raw = flow.get();
  bool complete = false;
  flow->onEstablished = [raw] { raw->sendData(1_MB); };
  flow->onSendComplete = [&complete] { complete = true; };
  flow->start();
  path.scenario.simulator.run();  // terminates only if no ticker re-arms
  EXPECT_TRUE(complete);
  EXPECT_EQ(path.scenario.ctx.extension<FluidEngine>().activeFlowCount(), 0u);
}

TEST(FluidFlow, DeterministicAcrossIdenticalRuns) {
  auto runOnce = [] {
    PathConfig cfg;
    cfg.rate = 10_Gbps;
    cfg.oneWayDelay = 5_ms;
    cfg.randomLoss = 2e-4;
    TcpPath path{cfg};
    std::vector<net::FlowPtr> flows;
    for (int i = 0; i < 16; ++i) {
      auto f = makeFluidFlow(path, TcpConfig::tunedDtn(), static_cast<std::uint16_t>(7000 + i));
      auto* raw = f.get();
      f->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
      f->start();
      flows.push_back(std::move(f));
    }
    path.scenario.simulator.runFor(10_s);
    std::vector<std::uint64_t> delivered;
    for (const auto& f : flows) delivered.push_back(f->deliveredBytes().byteCount());
    return delivered;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

}  // namespace
}  // namespace scidmz::tcp
