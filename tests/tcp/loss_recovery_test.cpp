// Loss recovery behaviour and the paper's central quantitative claim:
// simulated TCP throughput under random loss tracks the Mathis equation.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "../tcp/tcp_test_util.hpp"
#include "net/codec.hpp"
#include "net/loss.hpp"
#include "sim/codec.hpp"
#include "tcp/mathis.hpp"

namespace scidmz::tcp {
namespace {

using namespace scidmz::sim::literals;
using testutil::PathConfig;
using testutil::TcpPath;

TEST(LossRecovery, FastRetransmitRepairsSingleDrop) {
  PathConfig cfg;
  cfg.rate = 1_Gbps;
  cfg.oneWayDelay = 1_ms;
  cfg.periodicLoss = 2000;  // a handful of drops across the transfer
  TcpPath path{cfg};
  const auto out = path.transfer(20_MB, TcpConfig{});
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.delivered, 20_MB);
  EXPECT_GT(out.senderStats.fastRetransmits, 0u);
  // Isolated drops with plenty of dup-ACKs should rarely need an RTO.
  EXPECT_LE(out.senderStats.rtos, 2u);
}

TcpConfig steadyConfig(CcAlgorithm algo = CcAlgorithm::kReno) {
  TcpConfig cfg;
  cfg.algorithm = algo;
  cfg.sndBuf = 64_MB;  // ample for these BDPs; bounds the startup overshoot
  cfg.rcvBuf = 64_MB;
  return cfg;
}

TEST(LossRecovery, ThroughputDegradesWithLossRate) {
  auto run = [](double loss) {
    PathConfig cfg;
    cfg.rate = 10_Gbps;
    cfg.oneWayDelay = 5_ms;
    cfg.randomLoss = loss;
    TcpPath path{cfg};
    return path.steadyRate(steadyConfig(), 5_s, 15_s).toMbps();
  };
  const double clean = run(0.0);
  const double light = run(1e-5);
  const double heavy = run(1e-3);
  EXPECT_GT(clean, light);
  EXPECT_GT(light, 2.0 * heavy);
}

TEST(LossRecovery, LatencyAmplifiesLossDamage) {
  // The Figure 1 shape: the same loss rate hurts far more at high RTT.
  auto run = [](sim::Duration oneWay) {
    PathConfig cfg;
    cfg.rate = 10_Gbps;
    cfg.oneWayDelay = oneWay;
    cfg.randomLoss = 1e-4;
    TcpPath path{cfg};
    return path.steadyRate(steadyConfig(), 5_s, 15_s).toMbps();
  };
  const double local = run(500_us);   // 1ms RTT: metro
  const double remote = run(25_ms);   // 50ms RTT: cross-country
  EXPECT_GT(local, 4.0 * remote);
}

struct MathisCase {
  double loss;
  int rttMs;
};

class MathisAgreement : public ::testing::TestWithParam<MathisCase> {};

TEST_P(MathisAgreement, SimulatedRenoWithinBandOfPrediction) {
  const auto [loss, rttMs] = GetParam();
  PathConfig cfg;
  cfg.rate = 10_Gbps;
  cfg.oneWayDelay = sim::Duration::microseconds(rttMs * 500);
  cfg.mtu = 9000_B;
  cfg.randomLoss = loss;
  TcpPath path{cfg};

  // Steady-state goodput after the startup transient has drained.
  const double sim_mbps = path.steadyRate(steadyConfig(), 8_s, 20_s).toMbps();
  const auto predicted = mathisThroughput(8960_B, sim::Duration::milliseconds(rttMs), loss);
  const double pred_mbps = predicted.toMbps();
  // The Mathis equation is an upper bound ("at most") derived for periodic
  // loss; random loss and RTOs push real stacks below it. We require
  // agreement within a factor of ~2.5 either way — tight enough to catch a
  // broken congestion response, loose enough for model variance.
  EXPECT_LT(sim_mbps, pred_mbps * 2.5)
      << "loss=" << loss << " rtt=" << rttMs << "ms";
  EXPECT_GT(sim_mbps, pred_mbps / 2.5)
      << "loss=" << loss << " rtt=" << rttMs << "ms";
}

INSTANTIATE_TEST_SUITE_P(
    LossRttGrid, MathisAgreement,
    ::testing::Values(MathisCase{1e-4, 10}, MathisCase{1e-4, 40}, MathisCase{1e-3, 10},
                      MathisCase{1e-3, 40}, MathisCase{4.6e-5, 20}),
    [](const ::testing::TestParamInfo<MathisCase>& info) {
      const auto& c = info.param;
      return "loss" + std::to_string(static_cast<int>(c.loss * 1e6)) + "ppm_rtt" +
             std::to_string(c.rttMs) + "ms";
    });

TEST(LossRecovery, RtoRecoversFromAckStarvation) {
  // Severe loss: the dup-ACK signal dries up and only the RTO saves us.
  PathConfig cfg;
  cfg.rate = 100_Mbps;
  cfg.oneWayDelay = 2_ms;
  cfg.randomLoss = 0.25;
  TcpPath path{cfg};
  const auto out = path.transfer(200_KB, TcpConfig{}, 3600_s);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.delivered, 200_KB);
  EXPECT_GT(out.senderStats.rtos, 0u);
}

TEST(LossRecovery, ByteConservationUnderHeavyLoss) {
  PathConfig cfg;
  cfg.rate = 1_Gbps;
  cfg.oneWayDelay = 1_ms;
  cfg.randomLoss = 0.02;
  TcpPath path{cfg};
  const auto out = path.transfer(5_MB, TcpConfig{}, 600_s);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.delivered, 5_MB);  // exactly once, in order, no gaps
}

TEST(LossRecovery, HtcpBeatsRenoOnLossyHighBdpPath) {
  auto run = [](CcAlgorithm algo) {
    PathConfig cfg;
    cfg.rate = 10_Gbps;
    cfg.oneWayDelay = 25_ms;  // 50ms RTT
    cfg.randomLoss = 2e-5;
    TcpPath path{cfg};
    return path.steadyRate(steadyConfig(algo), 10_s, 30_s).toMbps();
  };
  const double reno = run(CcAlgorithm::kReno);
  const double htcp = run(CcAlgorithm::kHtcp);
  EXPECT_GT(htcp, reno * 1.3);
}

/// Drops nothing; keeps a copy of every SACK-carrying segment it sees.
struct SackWatch final : net::LossModel {
  bool shouldDrop(const net::Packet& p) override {
    if (p.isTcp() && p.tcp().sackCount > 0) seen.push_back(p);
    return false;
  }
  std::vector<net::Packet> seen;
};

TEST(SackBlocks, ReceiverAtTheLargestWindowSendsExactRangesAndSkipsOnesThatDoNotFit) {
  constexpr std::uint64_t kLargestWindow = std::uint64_t{65535} << 14;
  constexpr std::uint64_t kSegment = 9000;
  TcpPath path{PathConfig{}};
  auto watch = std::make_unique<SackWatch>();
  SackWatch& acks = *watch;
  path.link->setLossModel(1, std::move(watch));  // ACKs leaving the receiver

  TcpConfig cfg;
  cfg.rcvBuf = sim::DataSize::bytes(kLargestWindow);
  cfg.sndBuf = cfg.rcvBuf;
  path.listener = std::make_unique<TcpListener>(*path.b, 5001, cfg);
  path.client = std::make_unique<TcpConnection>(*path.a, path.b->address(), 5001, cfg);
  TcpConnection* server = nullptr;
  path.listener->onAccept = [&server](TcpConnection& c) { server = &c; };
  path.client->start();
  path.scenario.simulator.runFor(50_ms);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(path.client->established());
  ASSERT_TRUE(server->windowScalingActive());

  // Two segments beyond a hole: one ending at the far edge of the largest
  // window, one past 32-bit offsets of the cumulative ACK.
  const std::uint64_t ackNo = server->debugState().rcvNxt;
  auto inject = [&](std::uint64_t seq) {
    net::TcpHeader h;
    h.seq = seq;
    h.ack = true;
    h.ackNo = path.client->debugState().rcvNxt;
    path.a->send(net::makeTcpPacket(path.scenario.ctx.pool(), path.client->flow(), h,
                                    sim::DataSize::bytes(kSegment)));
  };
  inject(ackNo + kLargestWindow - kSegment);
  inject(ackNo + (std::uint64_t{1} << 32) + 1000);
  path.scenario.simulator.runFor(50_ms);
  ASSERT_FALSE(acks.seen.empty());

  // The second ACK holds both blocks; the one that does not fit is not sent.
  for (const net::Packet& ack : acks.seen) {
    const net::TcpHeader& h = ack.tcp();
    EXPECT_EQ(h.ackNo, ackNo);
    ASSERT_EQ(h.sackCount, 1);
    EXPECT_EQ(h.sackStart(0), ackNo + kLargestWindow - kSegment);
    EXPECT_EQ(h.sackEnd(0), ackNo + kLargestWindow);
  }

  // Through the codec (snapshots, delay-line records): the same ranges.
  net::Packet sent = acks.seen.back();
  sim::BitWriter w;
  sim::Codec wc{w};
  net::codecPacket(wc, sent);
  const std::vector<std::uint8_t> bytes = w.take();
  sim::BitReader r{bytes.data(), bytes.size()};
  sim::Codec rc{r};
  net::Packet decoded;
  net::codecPacket(rc, decoded);
  ASSERT_TRUE(rc.ok());
  ASSERT_EQ(decoded.tcp().sackCount, 1);
  EXPECT_EQ(decoded.tcp().sackStart(0), ackNo + kLargestWindow - kSegment);
  EXPECT_EQ(decoded.tcp().sackEnd(0), ackNo + kLargestWindow);
}

}  // namespace
}  // namespace scidmz::tcp
