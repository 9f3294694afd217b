// Snapshot/restore round-trip properties: a scenario snapshotted mid-run
// and restored onto an identically rebuilt cell must (a) match the
// snapshotting run's state byte-for-byte at the restore point — counters,
// connection state, queue/telemetry contents, flight-recorder ring — and
// (b) continue to results byte-identical to the uninterrupted run, at
// packet, fluid and mixed fidelity, at any SCIDMZ_SWEEP_THREADS, with
// packets held in a switch, firewall-engine or router pipeline.
// Traced runs snapshot too: the blob carries a SPAN overlay that replaces
// the rebuilt cell's construction-time span table. Unsupported scenarios
// (unregistered scenario-level closures) must be refused loudly, never
// silently corrupted.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/firewall.hpp"
#include "net/flow.hpp"
#include "net/loss.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "scenario/callback_registry.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/harness.hpp"
#include "sim/sweep.hpp"
#include "sim/units.hpp"
#include "tcp/connection.hpp"
#include "telemetry/span.hpp"

namespace scidmz::scenario {
namespace {

using namespace scidmz::sim::literals;

/// The device between the two hosts.
enum class Middle {
  kSwitch,    ///< cut-through science switch
  kFirewall,  ///< enterprise10G: engines behind a shallow input buffer
  kRouter,    ///< store-and-forward, no fixed delay: ACKs overtake data
};

/// Drops nothing; records when a SACK-carrying segment last went onto its
/// hop and folds every SACK block it sees into a digest. Its state travels
/// in the snapshot like any loss model's.
struct SackWatch final : net::LossModel {
  explicit SackWatch(sim::Simulator& simulator) : sim(simulator) {}
  bool shouldDrop(const net::Packet& p) override {
    if (p.isTcp() && p.tcp().sackCount > 0) {
      lastAt = sim.now();
      const net::TcpHeader& h = p.tcp();
      for (std::size_t i = 0; i < h.sackCount; ++i) {
        digest = (digest ^ h.sackStart(i)) * 0x100000001b3ull;
        digest = (digest ^ h.sackEnd(i)) * 0x100000001b3ull;
      }
    }
    return false;
  }
  void serializeState(sim::Codec& c) override {
    sim::codecTime(c, lastAt);
    c.vu64(digest);
  }

  sim::Simulator& sim;
  sim::SimTime lastAt = sim::SimTime::fromNs(-1'000'000'000);
  std::uint64_t digest = 0;
};

/// One snapshot-compatible cell: a 1 Gbps two-hop path with a periodic-loss
/// "failing line card" on the egress hop, one 48 MB flow (packet or fluid),
/// telemetry on. Construction is fully deterministic, so building two Cells
/// from the same arguments yields the identical rebuild the restore
/// protocol requires. A non-zero `stagger` starts flow i at i x stagger
/// instead of at once.
struct Cell {
  explicit Cell(net::FlowFidelity fidelity, int flows = 1, bool traced = false,
                sim::Duration stagger = sim::Duration::zero(), Middle middle = Middle::kSwitch)
      : s(20260809) {
    // Tracing must be on before flows are created so the factory arms the
    // construction-time flow spans the restore protocol replays.
    if (traced) s.ctx.extension<telemetry::Tracer>().enable();
    telemetry::TelemetryConfig tel;
    tel.sampleEvery = 10_ms;
    tel.ringCapacity = 4096;
    s.ctx.telemetry().enable(tel);

    auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
    net::Device* mid = nullptr;
    if (middle == Middle::kFirewall) {
      mid = firewall = &s.topo.addFirewall("fw", net::FirewallProfile::enterprise10G());
    } else if (middle == Middle::kRouter) {
      net::SwitchProfile profile;
      profile.processingDelay = sim::Duration::zero();
      mid = router = &s.topo.addRouter("rt", profile);
    } else {
      mid = &s.topo.addSwitch("sw");
    }
    auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
    net::LinkParams p;
    p.rate = 1_Gbps;
    p.delay = 5_ms;
    p.mtu = 9000_B;
    s.topo.connect(a, *mid, p);
    net::Link& egress = s.topo.connect(*mid, b, p);
    egress.setLossModel(0, std::make_unique<net::PeriodicLoss>(5000));
    s.topo.computeRoutes();

    tcp::TcpConfig cfg;
    cfg.algorithm = tcp::CcAlgorithm::kHtcp;
    cfg.sndBuf = 8_MB;
    cfg.rcvBuf = 8_MB;
    cfg.pacing = true;
    for (int i = 0; i < flows; ++i) {
      net::FlowFactory::Options options;
      options.port = static_cast<std::uint16_t>(5001 + i);
      // Alternate fidelities when running a mixed cell.
      options.fidelity = (flows > 1 && i % 2 == 1) ? net::FlowFidelity::kFluid : fidelity;
      options.pinned = true;
      net::FlowPtr flow = net::flowFactory(s.ctx).create(a, b, cfg, options);
      net::FlowHandle& ref = *flow;
      flow->onEstablished = [&ref] { ref.sendData(48_MB); };
      if (i == 0 || stagger == sim::Duration::zero()) {
        flow->start();
      } else {
        s.simulator.schedule(stagger * i, [&ref] { ref.start(); });
      }
      flowsHeld.push_back(std::move(flow));
    }
  }

  Scenario s;
  std::vector<net::FlowPtr> flowsHeld;
  net::FirewallDevice* firewall = nullptr;  // set for Middle::kFirewall
  net::RouterDevice* router = nullptr;      // set for Middle::kRouter
  SackWatch* sackSent = nullptr;       // ACKs leaving b, when a test installs it
  SackWatch* sackForwarded = nullptr;  // the same ACKs leaving the middle device
};

/// Everything observable about a cell, as one comparable string: clock and
/// event accounting, per-flow transfer state, the sorted telemetry
/// snapshot, and the full flight-recorder JSONL export (packet-level event
/// stream — the strongest pop-order witness available).
std::string signature(Scenario& s, const std::vector<net::FlowPtr>& flows) {
  std::ostringstream out;
  out << "now=" << s.simulator.now().ns()
      << " executed=" << s.simulator.eventsExecuted()
      << " scheduled=" << s.simulator.scheduledTotal()
      << " pending=" << s.simulator.pendingEventCount()
      << " daemons=" << s.simulator.pendingDaemonCount()
      << " forwarded=" << s.ctx.packetsForwarded() << '\n';
  for (const auto& flow : flows) {
    out << "flow delivered=" << flow->deliveredBytes().byteCount()
        << " acked=" << flow->ackedBytes().byteCount() << " retx=" << flow->retransmits()
        << " rate=" << flow->currentRate().bps()
        << " established=" << flow->established() << " complete=" << flow->sendComplete()
        << '\n';
  }
  out << s.ctx.telemetry().snapshot().toJson() << '\n';
  s.ctx.telemetry().recorder().exportJsonl(out);
  auto& tracer = s.ctx.extension<telemetry::Tracer>();
  if (tracer.enabled()) tracer.exportChromeTrace(out, s.simulator.now());
  return out.str();
}

std::string signature(Cell& c) {
  std::string sig = signature(c.s, c.flowsHeld);
  if (c.sackForwarded != nullptr) sig += "sack=" + std::to_string(c.sackForwarded->digest) + '\n';
  return sig;
}

void expectSameSignature(const std::string& got, const std::string& want, const char* what) {
  EXPECT_TRUE(got == want) << what << ": signatures diverge (" << got.size() << " vs "
                           << want.size() << " bytes)\n--- got (first 400) ---\n"
                           << got.substr(0, 400) << "\n--- want (first 400) ---\n"
                           << want.substr(0, 400);
}

/// Destroy the held flows at `drop` (creation-order indices, in the order
/// given) before the cell runs; both the original and the rebuild do this.
void dropFlows(Cell& c, const std::vector<std::size_t>& drop) {
  for (const std::size_t i : drop) c.flowsHeld[i].reset();
  std::erase_if(c.flowsHeld, [](const net::FlowPtr& flow) { return flow == nullptr; });
}

/// The core round trip: build a cell, run to t1 = 300 ms (then on in 250 ns
/// steps until `ready` holds, when given), snapshot; keep running the
/// original 700 ms. Rebuild, restore, check state byte-match at t1,
/// continue 700 ms, check byte-match again.
void roundTrip(const std::function<std::unique_ptr<Cell>()>& build,
               const std::function<bool(Cell&)>& ready = nullptr) {
  const auto original = build();
  original->s.simulator.runFor(300_ms);
  for (int step = 0; ready && !ready(*original) && step < 400'000; ++step) {
    original->s.simulator.runFor(250_ns);
  }
  if (ready) {
    ASSERT_TRUE(ready(*original)) << "snapshot point never reached";
  }
  const SnapshotBlob blob = saveSnapshot(original->s);
  ASSERT_TRUE(blob.ok()) << blob.error;
  ASSERT_FALSE(blob.bytes.empty());
  const std::string atSnapshot = signature(*original);
  original->s.simulator.runFor(700_ms);
  const std::string uninterrupted = signature(*original);

  const auto rebuilt = build();
  std::string error;
  ASSERT_TRUE(restoreSnapshot(rebuilt->s, blob.bytes, &error)) << error;
  if (ready) {
    EXPECT_TRUE(ready(*rebuilt)) << "restored cell lost the snapshot point's state";
  }
  expectSameSignature(signature(*rebuilt), atSnapshot, "state at restore point");
  rebuilt->s.simulator.runFor(700_ms);
  expectSameSignature(signature(*rebuilt), uninterrupted, "continuation");
}

void roundTrip(net::FlowFidelity fidelity, int flows, const std::vector<std::size_t>& drop = {}) {
  roundTrip([&] {
    auto cell = std::make_unique<Cell>(fidelity, flows);
    dropFlows(*cell, drop);
    return cell;
  });
}

TEST(SnapshotRoundTrip, PacketFidelityContinuesByteIdentical) {
  roundTrip(net::FlowFidelity::kPacket, 1);
}

TEST(SnapshotRoundTrip, FluidFidelityContinuesByteIdentical) {
  roundTrip(net::FlowFidelity::kFluid, 1);
}

TEST(SnapshotRoundTrip, MixedFidelityContinuesByteIdentical) {
  roundTrip(net::FlowFidelity::kPacket, 2);
}

TEST(SnapshotRoundTrip, MidBurstThroughFirewallEnginesContinuesByteIdentical) {
  // Snapshot while packets sit in the inspection engines' lines.
  roundTrip([] { return std::make_unique<Cell>(net::FlowFidelity::kPacket, 1, false,
                                               sim::Duration::zero(), Middle::kFirewall); },
            [](Cell& c) { return c.firewall->inInspection() > 0; });
}

TEST(SnapshotRoundTrip, MidBurstThroughStoreAndForwardRouterContinuesByteIdentical) {
  // A 9000 B data frame spends 72 us in the router's pipeline, an ACK well
  // under 1 us, and data frames never overlap there: two records mean an
  // ACK keyed after the data frame is due before it. Snapshot that line.
  roundTrip([] { return std::make_unique<Cell>(net::FlowFidelity::kPacket, 1, false,
                                               sim::Duration::zero(), Middle::kRouter); },
            [](Cell& c) { return c.router->inPipeline() >= 2; });
}

TEST(SnapshotRoundTrip, MidLossRecoveryWithSackAcksInFlightContinuesByteIdentical) {
  // A 1-in-500 loss on the data hop keeps the sender in SACK recovery for a
  // large share of the run. Snapshot while it is, with a SACK-carrying ACK
  // still on the receiver's 5 ms return hop: its blocks travel as offsets
  // above its ACK in the delay-line record. Every block the middle device
  // forwards afterwards is in the signature, so a block that came back
  // different shows even when the sender's later ACKs would paper over it.
  roundTrip(
      [] {
        auto cell = std::make_unique<Cell>(net::FlowFidelity::kPacket);
        net::Link& ingress = *cell->s.topo.links()[0];
        net::Link& egress = *cell->s.topo.links()[1];
        egress.setLossModel(0, std::make_unique<net::PeriodicLoss>(500));
        auto sent = std::make_unique<SackWatch>(cell->s.simulator);
        auto forwarded = std::make_unique<SackWatch>(cell->s.simulator);
        cell->sackSent = sent.get();
        cell->sackForwarded = forwarded.get();
        egress.setLossModel(1, std::move(sent));
        ingress.setLossModel(1, std::move(forwarded));
        return cell;
      },
      [](Cell& c) {
        const tcp::TcpConnection* client = c.flowsHeld[0]->clientConnection(0);
        return client != nullptr && client->debugState().inRecovery &&
               c.s.simulator.now() - c.sackSent->lastAt < 5_ms &&
               c.s.topo.links()[1]->inFlight(1) > 0;
      });
}

TEST(SnapshotRoundTrip, FluidFlowEstablishedBetweenTicksContinuesByteIdentical) {
  // Staggered fluid starts: the second flow establishes while the first
  // keeps the engine's ticker armed, so it holds no rate until the next
  // tick's recompute picks it up. A snapshot in that gap must hand it to
  // the restored engine's next recompute too.
  Cell original(net::FlowFidelity::kFluid, 2, /*traced=*/false, 25_ms);
  net::FlowHandle& late = *original.flowsHeld[1];
  while (!late.established()) original.s.simulator.runFor(100_us);
  ASSERT_EQ(late.currentRate(), sim::DataRate::zero()) << "snapshot must precede the next tick";
  ASSERT_GT(original.flowsHeld[0]->currentRate().bps(), 0u);
  const SnapshotBlob blob = saveSnapshot(original.s);
  ASSERT_TRUE(blob.ok()) << blob.error;
  const std::string atSnapshot = signature(original);
  original.s.simulator.runFor(700_ms);
  const std::string uninterrupted = signature(original);
  ASSERT_GT(late.deliveredBytes().byteCount(), 0u);

  Cell rebuilt(net::FlowFidelity::kFluid, 2, /*traced=*/false, 25_ms);
  std::string error;
  ASSERT_TRUE(restoreSnapshot(rebuilt.s, blob.bytes, &error)) << error;
  expectSameSignature(signature(rebuilt), atSnapshot, "state at restore point");
  rebuilt.s.simulator.runFor(700_ms);
  expectSameSignature(signature(rebuilt), uninterrupted, "continuation");
}

TEST(SnapshotRoundTrip, InterleavedTeardownContinuesByteIdentical) {
  // Two of six destroyed out of creation order leave tombstones in the
  // factory's registry at snapshot time; a third tips it into compaction.
  // Either way the snapshot walks the survivors in creation order.
  roundTrip(net::FlowFidelity::kPacket, 6, {4, 1});
  roundTrip(net::FlowFidelity::kPacket, 6, {4, 1, 3});
}

/// The paper's Figure 1 regime: one per-packet HTCP flow over a 10G path
/// with 100 ms one-way delay (two 50 ms hops through a switch), buffers
/// above the bandwidth-delay product, no loss, so slow start fills the
/// pipe with tens of thousands of packets.
struct HighBdpCell {
  HighBdpCell() : s(20131117) {
    telemetry::TelemetryConfig tel;
    tel.sampleEvery = 10_ms;
    tel.ringCapacity = 4096;
    s.ctx.telemetry().enable(tel);
    auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
    auto& sw = s.topo.addSwitch("sw");
    auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
    net::LinkParams p;
    p.rate = 10_Gbps;
    p.delay = 50_ms;
    p.mtu = 1500_B;
    s.topo.connect(a, sw, p);
    s.topo.connect(sw, b, p);
    s.topo.computeRoutes();
    tcp::TcpConfig cfg;
    cfg.algorithm = tcp::CcAlgorithm::kHtcp;
    cfg.sndBuf = 256_MB;
    cfg.rcvBuf = 256_MB;
    net::FlowFactory::Options options;
    options.port = 5001;
    options.fidelity = net::FlowFidelity::kPacket;
    options.pinned = true;
    flows.push_back(net::flowFactory(s.ctx).create(a, b, cfg, options));
    net::FlowHandle& ref = *flows.back();
    ref.onEstablished = [&ref] { ref.sendData(1_GB); };
    ref.start();
  }

  /// Packets propagating on any link, in either direction.
  [[nodiscard]] std::size_t inFlight() const {
    std::size_t n = 0;
    for (const auto& link : s.topo.links()) n += link->inFlight(0) + link->inFlight(1);
    return n;
  }

  Scenario s;
  std::vector<net::FlowPtr> flows;
};

TEST(SnapshotRoundTrip, HighBdpCellWithTenThousandPacketsInFlight) {
  HighBdpCell original;
  original.s.simulator.runFor(2500_ms);
  const std::size_t inFlight = original.inFlight();
  ASSERT_GT(inFlight, 10000u);
  // The delay lines hold the packets; the event queue holds their heads.
  EXPECT_LT(original.s.simulator.pendingEventCount(), 32u);
  const SnapshotBlob blob = saveSnapshot(original.s);
  ASSERT_TRUE(blob.ok()) << blob.error;
  const std::string atSnapshot = signature(original.s, original.flows);
  original.s.simulator.runFor(300_ms);
  const std::string uninterrupted = signature(original.s, original.flows);

  // Restore over a rebuild that ran on its own first, so its delay lines
  // are already busy: the restore must replace them, not append to them.
  HighBdpCell rebuilt;
  rebuilt.s.simulator.runFor(1500_ms);
  ASSERT_GT(rebuilt.inFlight(), 0u);
  std::string error;
  ASSERT_TRUE(restoreSnapshot(rebuilt.s, blob.bytes, &error)) << error;
  // One record per packet in flight came back.
  EXPECT_EQ(rebuilt.inFlight(), inFlight);
  expectSameSignature(signature(rebuilt.s, rebuilt.flows), atSnapshot, "state at restore point");
  rebuilt.s.simulator.runFor(300_ms);
  expectSameSignature(signature(rebuilt.s, rebuilt.flows), uninterrupted, "continuation");
}

TEST(FlowRegistry, EmptyAfterDestroyingTenThousandHandlesInCreationOrder) {
  Scenario s(7);
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  s.topo.connect(a, b, net::LinkParams{});
  s.topo.computeRoutes();
  net::FlowFactory& factory = net::flowFactory(s.ctx);
  constexpr std::size_t kFlows = 10'000;
  std::vector<net::FlowPtr> flows;
  for (std::size_t i = 0; i < kFlows; ++i) {
    net::FlowFactory::Options options;
    options.port = static_cast<std::uint16_t>(1 + i);
    options.fidelity = net::FlowFidelity::kFluid;
    options.pinned = true;
    flows.push_back(factory.create(a, b, tcp::TcpConfig{}, options));
  }
  EXPECT_EQ(factory.liveCount(), kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    flows[i].reset();
    ASSERT_EQ(factory.liveCount(), kFlows - i - 1);
  }
  EXPECT_EQ(factory.liveCount(), 0u);
}

TEST(SnapshotRoundTrip, RestoringTwiceIntoSameContextIsDeterministic) {
  // The ~Context/teardown satellite's behavioral half: a second restore of
  // the same blob into the same (already continued) Context must destroy
  // the first restore's server connections/samplers cleanly and land in
  // the same state — byte-identical continuation both times.
  Cell original(net::FlowFidelity::kPacket, 1);
  original.s.simulator.runFor(300_ms);
  const SnapshotBlob blob = saveSnapshot(original.s);
  ASSERT_TRUE(blob.ok()) << blob.error;

  Cell rebuilt(net::FlowFidelity::kPacket, 1);
  std::string error;
  ASSERT_TRUE(restoreSnapshot(rebuilt.s, blob.bytes, &error)) << error;
  rebuilt.s.simulator.runFor(500_ms);
  const std::string firstContinuation = signature(rebuilt);

  ASSERT_TRUE(restoreSnapshot(rebuilt.s, blob.bytes, &error)) << error;
  rebuilt.s.simulator.runFor(500_ms);
  expectSameSignature(signature(rebuilt), firstContinuation, "second restore");
}

TEST(SnapshotRoundTrip, SnapshotBytesAreDeterministic) {
  auto snap = [] {
    Cell cell(net::FlowFidelity::kPacket, 1);
    cell.s.simulator.runFor(200_ms);
    SnapshotBlob blob = saveSnapshot(cell.s);
    EXPECT_TRUE(blob.ok()) << blob.error;
    return blob.bytes;
  };
  EXPECT_EQ(snap(), snap());
}

TEST(SnapshotRoundTrip, ByteIdenticalAtAnyWorkerCount) {
  // Whole save+restore+continue pipelines run as sweep cells: results must
  // not depend on SCIDMZ_SWEEP_THREADS (cells share no state).
  auto runCells = [](int workers) {
    sim::SweepRunner sweep{workers};
    return sweep.run<std::string>(
        4,
        [](sim::SweepCell& cell) {
          const net::FlowFidelity fidelity =
              cell.index % 2 == 0 ? net::FlowFidelity::kPacket : net::FlowFidelity::kFluid;
          Cell original(fidelity, 1);
          original.s.simulator.runFor(250_ms);
          const SnapshotBlob blob = saveSnapshot(original.s);
          if (!blob.ok()) return std::string("refused: ") + blob.error;
          Cell rebuilt(fidelity, 1);
          std::string error;
          if (!restoreSnapshot(rebuilt.s, blob.bytes, &error)) return "failed: " + error;
          rebuilt.s.simulator.runFor(400_ms);
          return signature(rebuilt);
        },
        "snapshot_workers");
  };
  const auto serial = runCells(1);
  const auto parallel = runCells(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == parallel[i]) << "cell " << i << " diverged across worker counts";
    EXPECT_TRUE(serial[i].rfind("refused:", 0) != 0 && serial[i].rfind("failed:", 0) != 0)
        << serial[i].substr(0, 200);
  }
}

TEST(SnapshotRoundTrip, RegisteredClosureIsClaimedAndReArmed) {
  // A scenario-level closure registered by name is claimed by the snapshot
  // (no "pending events" refusal) and re-armed on restore: the continuation
  // fires it on the same schedule as the uninterrupted run.
  auto arm = [](Cell& cell, int& counter) {
    auto& callbacks = cell.s.ctx.extension<CallbackRegistry>();
    sim::Simulator& simulator = cell.s.simulator;
    callbacks.registerNamed("test/tick", [&counter, &callbacks, &simulator] {
      ++counter;
      callbacks.scheduleNamed(simulator, "test/tick", 100_ms);
    });
    callbacks.scheduleNamed(simulator, "test/tick", 100_ms);
  };

  Cell original(net::FlowFidelity::kPacket, 1);
  int originalTicks = 0;
  arm(original, originalTicks);
  original.s.simulator.runFor(250_ms);
  const SnapshotBlob blob = saveSnapshot(original.s);
  ASSERT_TRUE(blob.ok()) << blob.error;
  const int ticksAtSnapshot = originalTicks;
  original.s.simulator.runFor(700_ms);

  Cell rebuilt(net::FlowFidelity::kPacket, 1);
  int rebuiltTicks = 0;
  arm(rebuilt, rebuiltTicks);
  std::string error;
  ASSERT_TRUE(restoreSnapshot(rebuilt.s, blob.bytes, &error)) << error;
  EXPECT_EQ(rebuiltTicks, 0);  // restore re-arms the timer, it does not fire it
  rebuilt.s.simulator.runFor(700_ms);
  EXPECT_EQ(rebuiltTicks, originalTicks - ticksAtSnapshot);
  expectSameSignature(signature(rebuilt), signature(original), "closure continuation");
}

TEST(SnapshotRefusal, UnregisteredClosureArmedInBlobIsRefusedOnRestore) {
  // If the blob names a registered closure the rebuilt cell never
  // registered, restore must fail loudly instead of silently dropping the
  // timer.
  Cell original(net::FlowFidelity::kPacket, 1);
  auto& callbacks = original.s.ctx.extension<CallbackRegistry>();
  sim::Simulator& simulator = original.s.simulator;
  callbacks.registerNamed("test/orphan", [] {});
  callbacks.scheduleNamed(simulator, "test/orphan", 10_s);
  original.s.simulator.runFor(100_ms);
  const SnapshotBlob blob = saveSnapshot(original.s);
  ASSERT_TRUE(blob.ok()) << blob.error;

  Cell rebuilt(net::FlowFidelity::kPacket, 1);  // never registers test/orphan
  std::string error;
  EXPECT_FALSE(restoreSnapshot(rebuilt.s, blob.bytes, &error));
}

TEST(SnapshotRefusal, ScenarioLevelClosureIsRefusedNotDropped) {
  // An event the snapshot layer cannot re-materialize (a raw scenario
  // closure) must make saveSnapshot() refuse via the claimed-count check.
  Cell cell(net::FlowFidelity::kPacket, 1);
  cell.s.simulator.runFor(100_ms);
  cell.s.simulator.schedule(10_s, [] {});
  const SnapshotBlob blob = saveSnapshot(cell.s);
  EXPECT_FALSE(blob.ok());
  EXPECT_NE(blob.error.find("pending events"), std::string::npos) << blob.error;
}

TEST(SnapshotRoundTrip, TracedRunContinuesWithSpansByteIdentical) {
  // --trace and --restore now compose: the blob's SPAN overlay replaces the
  // rebuilt cell's construction-time span table, and connections re-resolve
  // their tracer on restore, so both the restore-point state and the
  // continuation's span export match the uninterrupted traced run.
  Cell original(net::FlowFidelity::kPacket, 1, /*traced=*/true);
  original.s.simulator.runFor(300_ms);
  const SnapshotBlob blob = saveSnapshot(original.s);
  ASSERT_TRUE(blob.ok()) << blob.error;
  const std::string atSnapshot = signature(original);
  original.s.simulator.runFor(700_ms);
  const std::string uninterrupted = signature(original);

  Cell rebuilt(net::FlowFidelity::kPacket, 1, /*traced=*/true);
  std::string error;
  ASSERT_TRUE(restoreSnapshot(rebuilt.s, blob.bytes, &error)) << error;
  expectSameSignature(signature(rebuilt), atSnapshot, "traced state at restore point");
  rebuilt.s.simulator.runFor(700_ms);
  expectSameSignature(signature(rebuilt), uninterrupted, "traced continuation");
}

TEST(SnapshotRefusal, GarbageBlobIsRefused) {
  Cell cell(net::FlowFidelity::kPacket, 1);
  const std::vector<std::uint8_t> garbage{0xde, 0xad, 0xbe, 0xef};
  std::string error;
  EXPECT_FALSE(restoreSnapshot(cell.s, garbage, &error));
  EXPECT_NE(error.find("snap.v1"), std::string::npos) << error;
}

}  // namespace
}  // namespace scidmz::scenario
