// Tests for the telemetry layer: registry semantics, flight recorder ring
// behaviour and exporters, sampling via daemon events, end-to-end emit-point
// wiring through an instrumented scenario, loss localization, and the
// determinism guarantee (byte-identical snapshots at any sweep worker count).
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "sim/codec.hpp"
#include "sim/sweep.hpp"
#include "tcp/connection.hpp"
#include "telemetry/diagnosis.hpp"
#include "telemetry/series.hpp"

namespace scidmz::telemetry {
namespace {

using namespace scidmz::sim::literals;

struct Scenario {
  sim::Simulator simulator;
  sim::Rng rng{20130101};
  net::Context ctx{simulator, rng};
  net::Topology topo{ctx};
};

TEST(MetricRegistry, CounterCreateOrGetIsStable) {
  MetricRegistry reg;
  std::uint64_t& a = reg.counter("queue/sw0/if0/drops");
  a += 3;
  std::uint64_t& again = reg.counter("queue/sw0/if0/drops");
  EXPECT_EQ(&a, &again);
  EXPECT_EQ(again, 3u);
  EXPECT_EQ(reg.counterValue("queue/sw0/if0/drops"), 3u);
  EXPECT_EQ(reg.counterValue("no/such/counter"), 0u);
}

TEST(MetricRegistry, AddressesSurviveGrowth) {
  MetricRegistry reg;
  std::uint64_t& first = reg.counter("c0");
  for (int i = 1; i < 200; ++i) (void)reg.counter(std::string("c").append(std::to_string(i)));
  first = 7;
  EXPECT_EQ(reg.counterValue("c0"), 7u);
  EXPECT_EQ(reg.counterCount(), 200u);
}

TEST(MetricRegistry, IterationFollowsRegistrationOrder) {
  MetricRegistry reg;
  (void)reg.counter("zebra");
  (void)reg.counter("alpha");
  std::vector<std::string> order;
  reg.forEachCounter([&](const std::string& name, std::uint64_t) { order.push_back(name); });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "zebra");
  EXPECT_EQ(order[1], "alpha");
}

TEST(FlightRecorder, RingWrapOverwritesOldestAndCounts) {
  FlightRecorder rec(4);
  const std::uint32_t point = rec.internPoint("swA/if0");
  for (std::uint64_t i = 0; i < 6; ++i) {
    FlightEvent ev;
    ev.at = sim::SimTime::zero() + sim::Duration::microseconds(static_cast<std::int64_t>(i));
    ev.packetId = i;
    ev.point = point;
    rec.record(ev);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.totalRecorded(), 6u);
  EXPECT_EQ(rec.overwritten(), 2u);
  std::vector<std::uint64_t> ids;
  rec.forEach([&](const FlightEvent& e) { ids.push_back(e.packetId); });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 3, 4, 5}));
}

TEST(FlightRecorder, SetCapacityOnlyBeforeFirstRecord) {
  FlightRecorder rec(4);
  rec.setCapacity(2);
  EXPECT_EQ(rec.capacity(), 2u);
  FlightEvent ev;
  rec.record(ev);
  rec.setCapacity(64);  // ignored: the ring is live
  EXPECT_EQ(rec.capacity(), 2u);
}

/// Counts a decoder must refuse before sizing anything for them: far past
/// the end of any blob, and past what a size_t multiply survives.
const std::vector<std::uint64_t> kHugeCounts{std::uint64_t{1} << 40, (std::uint64_t{1} << 61) + 1,
                                             std::numeric_limits<std::uint64_t>::max()};

TEST(FlightRecorder, RetainedCountPastTheEndOrAboveCapacityFailsWithoutAllocating) {
  // capacity 16, then the retained count, then 512 bits of zeros: room for
  // eight events at the least, not for a huge count.
  for (const std::uint64_t retained : kHugeCounts) {
    sim::BitWriter w;
    w.writeVarint(16);
    w.writeVarint(retained);
    for (int i = 0; i < 8; ++i) w.writeU64(0);
    sim::BitReader r(w.bytes().data(), w.byteSize());
    sim::Codec c(r);
    FlightRecorder rec(16);
    rec.serialize(c);
    EXPECT_TRUE(r.fail()) << retained;
    EXPECT_EQ(rec.size(), 0u) << retained;
  }
  // Five events fit in the bits left, but not in a ring of four.
  {
    sim::BitWriter w;
    w.writeVarint(4);
    w.writeVarint(5);
    for (int i = 0; i < 8; ++i) w.writeU64(0);
    sim::BitReader r(w.bytes().data(), w.byteSize());
    sim::Codec c(r);
    FlightRecorder rec(4);
    rec.serialize(c);
    EXPECT_TRUE(r.fail());
    EXPECT_EQ(rec.size(), 0u);
  }
  // An empty ring whose next overwrite would land past its end.
  {
    sim::BitWriter w;
    w.writeVarint(4);  // capacity
    w.writeVarint(0);  // retained
    w.writeVarint(4);  // head
    for (int i = 0; i < 4; ++i) w.writeU64(0);
    sim::BitReader r(w.bytes().data(), w.byteSize());
    sim::Codec c(r);
    FlightRecorder rec(4);
    rec.serialize(c);
    EXPECT_TRUE(r.fail());
  }
}

TEST(TimeSeries, SampleCountPastTheEndFailsWithoutAllocating) {
  for (const std::uint64_t n : kHugeCounts) {
    sim::BitWriter w;
    w.writeVarint(n);
    for (int i = 0; i < 8; ++i) w.writeU64(0);
    sim::BitReader r(w.bytes().data(), w.byteSize());
    sim::Codec c(r);
    TimeSeries series("cwnd");
    series.serialize(c);
    EXPECT_TRUE(r.fail()) << n;
    EXPECT_TRUE(series.empty()) << n;
  }
}

TEST(FlightRecorder, JsonlLineFormat) {
  FlightRecorder rec(8);
  FlightEvent ev;
  ev.at = sim::SimTime::zero() + 1500_us;
  ev.packetId = 42;
  ev.aux = 9000;   // sequence
  ev.aux2 = 1234;  // depth
  ev.flow = FlowRef{(10u << 24) | 1u, (10u << 24) | 2u, 49152, 5001, 6};
  ev.bytes = 9040;
  ev.point = rec.internPoint("line-card-router/if1");
  ev.kind = FlightEventKind::kDrop;
  rec.record(ev);

  std::ostringstream out;
  rec.exportJsonl(out);
  EXPECT_EQ(out.str(),
            "{\"t_ns\":1500000,\"ev\":\"drop\",\"point\":\"line-card-router/if1\","
            "\"pkt\":42,\"src\":\"10.0.0.1\",\"dst\":\"10.0.0.2\",\"sport\":49152,"
            "\"dport\":5001,\"proto\":\"tcp\",\"bytes\":9040,\"seq\":9000,"
            "\"depth\":1234}\n");
}

TEST(Telemetry, DisabledByDefaultAndFirstEnableWins) {
  sim::Simulator sim;
  sim::Arena arena;
  Telemetry tel{sim, arena};
  EXPECT_FALSE(tel.enabled());

  TelemetryConfig first;
  first.sampleEvery = 5_ms;
  tel.enable(first);
  EXPECT_TRUE(tel.enabled());

  TelemetryConfig second;
  second.sampleEvery = 99_ms;
  tel.enable(second);  // no-op: emit points already cached the first config
  EXPECT_EQ(tel.config().sampleEvery, 5_ms);
}

TEST(Telemetry, SamplersFireOnCadenceThroughRunFor) {
  sim::Simulator sim;
  sim::Arena arena;
  Telemetry tel{sim, arena};
  TelemetryConfig config;
  config.sampleEvery = 10_ms;
  tel.enable(config);

  double value = 1.0;
  const SamplerId id = tel.addSampler("probe/x", [&value] { return value++; });
  ASSERT_TRUE(id.valid());
  sim.runFor(95_ms);  // ticks at 10, 20, ..., 90

  const TimeSeries* series = tel.findSeries("probe/x");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->size(), 9u);
  EXPECT_DOUBLE_EQ(series->first(), 1.0);
  EXPECT_DOUBLE_EQ(series->last(), 9.0);
  EXPECT_EQ(series->samples().front().at, sim::SimTime::zero() + 10_ms);

  tel.removeSampler(id);
  sim.runFor(50_ms);
  EXPECT_EQ(tel.findSeries("probe/x")->size(), 9u);  // no further samples
}

TEST(Telemetry, SamplingDaemonDoesNotKeepRunAlive) {
  sim::Simulator sim;
  sim::Arena arena;
  Telemetry tel{sim, arena};
  tel.enable();
  (void)tel.addSampler("probe/idle", [] { return 0.0; });
  int fired = 0;
  sim.schedule(25_ms, [&fired] { ++fired; });
  sim.run();  // must terminate although the sampling daemon re-arms forever
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), sim::SimTime::zero() + 25_ms);
}

TEST(Telemetry, SnapshotSortsByNameAndRoundTripsValues) {
  sim::Simulator sim;
  sim::Arena arena;
  Telemetry tel{sim, arena};
  tel.enable();
  tel.metrics().counter("zeta/drops") = 4;
  tel.metrics().counter("alpha/lost") = 9;
  tel.metrics().gauge("g/util") = 0.5;

  const TelemetrySnapshot snap = tel.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha/lost");
  EXPECT_EQ(snap.counters[1].name, "zeta/drops");
  EXPECT_EQ(snap.counterValue("alpha/lost"), 9u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 0.5);
  EXPECT_NE(snap.toJson().find("\"schema\":\"scidmz.telemetry.v1\""), std::string::npos);
}

TEST(Diagnosis, LocalizeLossRanksByCountThenName) {
  sim::Simulator sim;
  sim::Arena arena;
  Telemetry tel{sim, arena};
  tel.enable();
  tel.metrics().counter("link/r->b/lost") = 21;
  tel.metrics().counter("queue/sw/if0/drops") = 21;
  tel.metrics().counter("firewall/fw/drops_policy") = 3;
  tel.metrics().counter("tcp/flow/retransmits") = 40;  // not a loss counter
  tel.metrics().counter("queue/quiet/if1/drops") = 0;  // zero: not a suspect

  const auto diagnosis = localizeLoss(tel.snapshot());
  ASSERT_EQ(diagnosis.suspects.size(), 3u);
  EXPECT_FALSE(diagnosis.clean());
  // Equal counts tie-break by name; "link/..." < "queue/..." lexically.
  EXPECT_EQ(diagnosis.suspects[0].point, "link/r->b/lost");
  EXPECT_EQ(diagnosis.suspects[1].point, "queue/sw/if0/drops");
  EXPECT_EQ(diagnosis.suspects[2].point, "firewall/fw/drops_policy");
  ASSERT_NE(diagnosis.culprit(), nullptr);
  EXPECT_EQ(diagnosis.culprit()->count, 21u);
}

TEST(Diagnosis, CleanSnapshotHasNoCulprit) {
  sim::Simulator sim;
  sim::Arena arena;
  Telemetry tel{sim, arena};
  const auto diagnosis = localizeLoss(tel.snapshot());
  EXPECT_TRUE(diagnosis.clean());
  EXPECT_EQ(diagnosis.culprit(), nullptr);
}

/// A small lossy path with a bulk TCP flow; telemetry enabled up front.
std::string runInstrumentedCell(int lossPeriod) {
  Scenario s;
  s.ctx.telemetry().enable();
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& r = s.topo.addRouter("r");
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  net::LinkParams lp;
  lp.rate = 1_Gbps;
  lp.delay = 2_ms;
  s.topo.connect(a, r, lp);
  auto& bad = s.topo.connect(r, b, lp);
  bad.setLossModel(0, std::make_unique<net::PeriodicLoss>(lossPeriod));
  s.topo.computeRoutes();

  tcp::TcpConfig cfg;
  tcp::TcpListener listener{b, 5001, cfg};
  tcp::TcpConnection client{a, b.address(), 5001, cfg};
  client.onEstablished = [&client] { client.sendData(sim::DataSize::gigabytes(1)); };
  client.start();
  s.simulator.runFor(500_ms);
  return s.ctx.telemetry().snapshot().toJson();
}

TEST(Telemetry, InstrumentedScenarioWiresEmitPoints) {
  Scenario s;
  s.ctx.telemetry().enable();
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& r = s.topo.addRouter("r");
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  net::LinkParams lp;
  lp.rate = 1_Gbps;
  lp.delay = 2_ms;
  s.topo.connect(a, r, lp);
  auto& bad = s.topo.connect(r, b, lp);
  bad.setLossModel(0, std::make_unique<net::PeriodicLoss>(200));
  s.topo.computeRoutes();

  tcp::TcpConfig cfg;
  tcp::TcpListener listener{b, 5001, cfg};
  tcp::TcpConnection client{a, b.address(), 5001, cfg};
  client.onEstablished = [&client] { client.sendData(sim::DataSize::gigabytes(1)); };
  client.start();
  s.simulator.runFor(500_ms);

  const TelemetrySnapshot snap = s.ctx.telemetry().snapshot();
  EXPECT_GT(snap.counterValue("link/r->b/lost"), 0u);
  EXPECT_GT(snap.counterValue("link/a->r/delivered"), 0u);

  const auto diagnosis = localizeLoss(snap);
  ASSERT_NE(diagnosis.culprit(), nullptr);
  EXPECT_EQ(diagnosis.culprit()->point, "link/r->b/lost");

  // The sender's cwnd probe sampled throughout the run.
  bool sawCwnd = false;
  for (const auto& series : snap.series) {
    if (series.name.size() > 11 &&
        series.name.compare(series.name.size() - 11, 11, "/cwnd_bytes") == 0) {
      sawCwnd = series.sampleCount > 0;
    }
  }
  EXPECT_TRUE(sawCwnd);

  // Retransmits were recorded both as a counter and as flight events.
  EXPECT_GT(snap.flightEventsRecorded, 0u);
  std::uint64_t retransmits = 0;
  for (const auto& c : snap.counters) {
    if (c.name.size() > 12 &&
        c.name.compare(c.name.size() - 12, 12, "/retransmits") == 0) {
      retransmits += c.value;
    }
  }
  EXPECT_GT(retransmits, 0u);
}

TEST(Telemetry, SnapshotJsonIsByteIdenticalAcrossWorkerCounts) {
  const std::vector<int> periods{50, 100, 200, 400};
  auto body = [&periods](sim::SweepCell& cell) {
    return runInstrumentedCell(periods[cell.index]);
  };
  sim::SweepRunner serial{1};
  const auto one = serial.run<std::string>(periods.size(), body, "serial");
  sim::SweepRunner parallel{4};
  const auto four = parallel.run<std::string>(periods.size(), body, "parallel");
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_FALSE(one[i].empty());
    EXPECT_EQ(one[i], four[i]) << "cell " << i;
  }
}

TEST(Telemetry, TraceIsByteIdenticalAcrossRuns) {
  auto runTrace = [] {
    Scenario s;
    s.ctx.telemetry().enable();
    auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
    auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
    net::LinkParams lp;
    lp.rate = 1_Gbps;
    lp.delay = 1_ms;
    auto& wire = s.topo.connect(a, b, lp);
    wire.setLossModel(0, std::make_unique<net::PeriodicLoss>(100));
    s.topo.computeRoutes();
    tcp::TcpConfig cfg;
    tcp::TcpListener listener{b, 5001, cfg};
    tcp::TcpConnection client{a, b.address(), 5001, cfg};
    client.onEstablished = [&client] { client.sendData(sim::DataSize::megabytes(50)); };
    client.start();
    s.simulator.runFor(300_ms);
    std::ostringstream out;
    s.ctx.telemetry().recorder().exportJsonl(out);
    return out.str();
  };
  const std::string first = runTrace();
  const std::string second = runTrace();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace scidmz::telemetry
