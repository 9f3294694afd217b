// Fluid (analytic) flow engine: the response function, the flow lifecycle
// through the unified FlowHandle, and the packet/fluid capacity coupling.
#include "tcp/fluid.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../tcp/tcp_test_util.hpp"
#include "net/flow.hpp"
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
// the flows woken since (established, or given more data). These drive the
// engine directly so flow ids, and with them slot recycling, are visible.

TEST(FluidActiveSet, DrainedFlowGivenMoreDataRunsAgainAndCompletesExactly) {
  TcpPath path;
  auto& engine = path.scenario.ctx.extension<FluidEngine>();
  const auto id = engine.addFlow(*path.a, *path.b, TcpConfig::tunedDtn(), 1);
  int completions = 0;
  engine.callbacks(id).onEstablished = [&engine, id] { engine.queueData(id, 4_MB); };
  engine.callbacks(id).onSendComplete = [&completions] { ++completions; };
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
  auto startBulk = [&engine](FluidEngine::FlowId id, sim::DataSize bytes) {
    engine.callbacks(id).onEstablished = [&engine, id, bytes] { engine.queueData(id, bytes); };
    engine.startFlow(id);
  };
  const auto first = engine.addFlow(*path.a, *path.b, cfg, 1);
  const auto second = engine.addFlow(*path.a, *path.b, cfg, 1);
  startBulk(first, 1_TB);
  startBulk(second, 1_TB);
  simulator.runFor(100_ms);
  ASSERT_GT(engine.currentRate(first).bps(), 0u);
  ASSERT_GT(engine.currentRate(second).bps(), 0u);

  engine.removeFlow(first);
  const auto recycled = engine.addFlow(*path.a, *path.b, cfg, 1);
  ASSERT_EQ(recycled, first);  // a lower id than the flow still in flight
  ASSERT_LT(recycled, second);
  // The next tick passes over the removed flow's stale active entry; the
  // new flow in that slot has not started, so it must stay idle.
  simulator.runFor(20_ms);
  EXPECT_EQ(engine.currentRate(recycled), sim::DataRate::zero());
  EXPECT_EQ(engine.activeFlowCount(), 1u);

  bool complete = false;
  engine.callbacks(recycled).onSendComplete = [&complete] { complete = true; };
  startBulk(recycled, 8_MB);
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

  engine.removeFlow(second);
  simulator.runFor(20_ms);
  EXPECT_EQ(engine.currentRate(second), sim::DataRate::zero());
  EXPECT_EQ(engine.activeFlowCount(), 0u);
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
