// End-to-end tests for the observability layer: flow root spans and TCP
// phase children through the FlowFactory seam (packet and fluid fidelity),
// the critical-path report, spansEmitted bookkeeping through finishCell,
// and the determinism guarantee (byte-identical span exports at any sweep
// worker count).
#include "scenario/observability.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "net/loss.hpp"
#include "net/topology.hpp"
#include "scenario/harness.hpp"
#include "sim/sweep.hpp"
#include "tcp/connection.hpp"
#include "telemetry/span.hpp"

namespace scidmz::scenario {
namespace {

using namespace scidmz::sim::literals;

/// A 40 ms RTT path with a soft-failure line card on the forward direction:
/// the regime where loss recovery dominates a bulk transfer. Returns the
/// cell's span export.
std::string runImpairedCell(net::FlowFidelity fidelity = net::FlowFidelity::kPacket) {
  Scenario s;
  s.ctx.extension<telemetry::Tracer>().enable();
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  net::LinkParams lp;
  lp.rate = 1_Gbps;
  lp.delay = 20_ms;
  lp.mtu = 9000_B;
  auto& link = s.topo.connect(a, b, lp);
  link.setLossModel(0, std::make_unique<net::PeriodicLoss>(1500));
  s.topo.computeRoutes();

  net::FlowFactory::Options options;
  options.port = 5001;
  options.fidelity = fidelity;
  auto flow = net::flowFactory(s.ctx).create(a, b, tcp::TcpConfig::tunedDtn(), options);
  auto* raw = flow.get();
  flow->onEstablished = [raw] { raw->sendData(100_GB); };
  flow->start();
  s.simulator.runFor(5_s);

  auto& tracer = s.ctx.extension<telemetry::Tracer>();
  tracer.correlate(s.ctx.telemetry().recorder(), s.ctx.now());
  std::ostringstream out;
  tracer.exportChromeTrace(out, s.ctx.now());
  return out.str();
}

TEST(FlowSpans, PacketFlowOpensRootAndContiguousPhaseChildren) {
  Scenario s;
  auto& tracer = s.ctx.extension<telemetry::Tracer>();
  tracer.enable();
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  net::LinkParams lp;
  lp.rate = 10_Gbps;
  lp.delay = 1_ms;
  lp.mtu = 9000_B;
  s.topo.connect(a, b, lp);
  s.topo.computeRoutes();

  net::FlowFactory::Options options;
  options.port = 5001;
  auto flow = net::flowFactory(s.ctx).create(a, b, tcp::TcpConfig::tunedDtn(), options);
  auto* raw = flow.get();
  flow->onEstablished = [raw] { raw->sendData(1_GB); };
  flow->start();
  s.simulator.runFor(2_s);

  ASSERT_GE(tracer.spansEmitted(), 2u);
  const telemetry::Tracer::Span* root = tracer.find(telemetry::SpanId{1});
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->category, "flow");
  EXPECT_EQ(root->name, "flow a->b");
  EXPECT_EQ(root->parent, 0u);

  // Phase children tile the connection's lifetime: each starts where the
  // previous ended, the first is the handshake, none overlap.
  std::vector<const telemetry::Tracer::Span*> phases;
  tracer.forEachSpan([&](telemetry::SpanId, const telemetry::Tracer::Span& span) {
    if (span.category == "tcp.phase") phases.push_back(&span);
  });
  ASSERT_GE(phases.size(), 2u);
  EXPECT_EQ(phases.front()->name, "handshake");
  for (const auto* p : phases) EXPECT_EQ(p->parent, 1u);
  for (std::size_t i = 1; i < phases.size(); ++i) {
    EXPECT_FALSE(phases[i - 1]->open);
    EXPECT_EQ(phases[i]->t0.ns(), phases[i - 1]->t1.ns());
  }
}

TEST(FlowSpans, FluidFlowOpensRootWithModelAnnotation) {
  Scenario s;
  auto& tracer = s.ctx.extension<telemetry::Tracer>();
  tracer.enable();
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  net::LinkParams lp;
  lp.rate = 10_Gbps;
  lp.delay = 1_ms;
  s.topo.connect(a, b, lp);
  s.topo.computeRoutes();

  net::FlowFactory::Options options;
  options.port = 5001;
  options.fidelity = net::FlowFidelity::kFluid;
  auto flow = net::flowFactory(s.ctx).create(a, b, tcp::TcpConfig::tunedDtn(), options);
  auto* raw = flow.get();
  flow->onEstablished = [raw] { raw->sendData(1_GB); };
  flow->start();
  s.simulator.runFor(2_s);

  std::ostringstream out;
  tracer.exportChromeTrace(out, s.ctx.now());
  const std::string text = out.str();
  EXPECT_NE(text.find("\"fidelity\": \"fluid\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"handshake\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"cwnd_limited\""), std::string::npos);
}

TEST(FinishCell, RecordsSpansEmitted) {
  Scenario s;
  s.ctx.extension<telemetry::Tracer>().enable();
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  net::LinkParams lp;
  lp.rate = 10_Gbps;
  lp.delay = 1_ms;
  s.topo.connect(a, b, lp);
  s.topo.computeRoutes();
  net::FlowFactory::Options options;
  options.port = 5001;
  auto flow = net::flowFactory(s.ctx).create(a, b, tcp::TcpConfig::tunedDtn(), options);
  flow->start();
  s.simulator.runFor(1_s);

  sim::SweepCell cell;
  finishCell(s, cell);
  EXPECT_EQ(cell.spansEmitted, s.ctx.extension<telemetry::Tracer>().spansEmitted());
  EXPECT_GE(cell.spansEmitted, 2u);
}

TEST(CriticalPathReport, LossRecoveryDominatesImpairedCellAndAttributionIsComplete) {
  const std::string trace = runImpairedCell();
  const std::string path = testing::TempDir() + "obs_report.trace.json";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out);
    out << trace;
  }

  std::ostringstream report;
  std::ostringstream err;
  ASSERT_TRUE(printCriticalPathReport({path}, report, err)) << err.str();
  EXPECT_EQ(err.str(), "");
  const std::string text = report.str();
  std::remove(path.c_str());

  // Parse the aggregate section: "    12.3%  phase_name ..." lines.
  std::map<std::string, double> percent;
  double attributed = 0.0;
  std::istringstream lines(text.substr(text.find("aggregate (all roots)")));
  for (std::string line; std::getline(lines, line);) {
    double value = 0.0;
    char name[32] = {};
    if (std::sscanf(line.c_str(), " %lf%%  %31s", &value, name) == 2) {
      if (std::string(name) == "attributed") {
        attributed = value;
      } else {
        percent[name] = value;
      }
    }
  }
  ASSERT_FALSE(percent.empty()) << text;
  // >= 95% of the transfer's duration lands in named phases.
  EXPECT_GE(attributed, 95.0) << text;
  // Loss recovery is the top phase on the impaired path.
  double top = 0.0;
  std::string topName;
  for (const auto& [name, value] : percent) {
    if (value > top) {
      top = value;
      topName = name;
    }
  }
  EXPECT_EQ(topName, "loss_recovery") << text;
}

TEST(CriticalPathReport, MalformedTraceIsRefusedWithoutACrash) {
  // A root flow span (event 1) with one phase child (event 2).
  const std::string valid =
      "{\"otherData\": {\"schema\": \"scidmz.spans.v2\", \"cell\": 0, \"spans\": 2, "
      "\"open\": 0, \"now_ns\": 5000}, \"traceEvents\": [\n"
      "{\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": \"thread_name\", "
      "\"args\": {\"name\": \"flow a->b\"}},\n"
      "{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": \"flow a->b\", \"cat\": \"flow\", "
      "\"ts\": 0.000, \"dur\": 5.000, \"args\": {\"span_id\": 1}},\n"
      "{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": \"handshake\", \"cat\": \"tcp.phase\", "
      "\"ts\": 1.000, \"dur\": 2.000, \"args\": {\"span_id\": 2, \"parent\": 1}}\n"
      "]}\n";
  const std::string path = testing::TempDir() + "obs_malformed.trace.json";
  const auto report = [&path](const std::string& text, std::string& err) {
    {
      std::ofstream out(path);
      out << text;
    }
    std::ostringstream outStream;
    std::ostringstream errStream;
    const bool ok = printCriticalPathReport({path}, outStream, errStream);
    err = errStream.str();
    if (!ok) {
      EXPECT_EQ(outStream.str(), "") << "a refused report prints no table";
    }
    return ok;
  };
  std::string err;
  ASSERT_TRUE(report(valid, err)) << err;

  const auto mutate = [&valid](const std::string& from, const std::string& to) {
    const std::size_t at = valid.rfind(from);
    EXPECT_NE(at, std::string::npos) << from;
    std::string out = valid;
    return out.replace(at, from.size(), to);
  };
  const struct {
    std::string text;
    const char* why;
  } cases[] = {
      {mutate("\"span_id\": 2", "\"span_id\": \"x\""), "event 2: missing or non-numeric \"span_id\""},
      {mutate("\"name\": \"handshake\", ", ""), "event 2: missing or non-string \"name\""},
      {mutate("\"cat\": \"tcp.phase\"", "\"cat\": 7"), "event 2: missing or non-string \"cat\""},
      {mutate("\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": \"handshake\"",
              "\"pid\": 1, \"tid\": 1, \"name\": \"handshake\""),
       "event 2: missing or non-string \"ph\""},
      {mutate(", \"args\": {\"span_id\": 2, \"parent\": 1}", ""),
       "event 2: missing or non-object \"args\""},
      {mutate("\"dur\": 2.000", "\"dur\": 1e30"), "event 2: \"dur\" is out of range"},
      {mutate("\"ts\": 1.000", "\"ts\": -1.000"), "event 2: \"ts\" is out of range"},
      {mutate("\"span_id\": 2", "\"span_id\": 2.5"), "event 2: \"span_id\" is not a whole number"},
      {mutate("\"span_id\": 2", "\"span_id\": 1"), "event 2: span_id 1 repeats"},
      {mutate("\"parent\": 1", "\"parent\": 9"), "event 2: parent 9 not seen before span 2"},
      {mutate("\"parent\": 1", "\"parent\": 2"), "event 2: parent 2 not seen before span 2"},
      {mutate("scidmz.spans.v2", "scidmz.spans.v9"), "not a scidmz.spans.v2 trace"},
      {valid.substr(0, valid.size() / 2), "report: "},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(report(c.text, err)) << c.why;
    EXPECT_NE(err.find(path + ": "), std::string::npos) << err;
    EXPECT_NE(err.find(c.why), std::string::npos) << "want: " << c.why << "\ngot: " << err;
  }
  std::remove(path.c_str());
}

TEST(TraceDeterminism, SpanExportsByteIdenticalAcrossWorkerCounts) {
  auto runCells = [](int workers) {
    sim::SweepRunner runner(workers);
    return runner.run<std::string>(
        4, [](sim::SweepCell&) { return runImpairedCell(); }, "trace_determinism");
  };
  const auto serial = runCells(1);
  const auto parallel = runCells(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
    EXPECT_FALSE(serial[i].empty());
  }
  // All cells run the same scenario: their traces must agree with each
  // other too (no cross-cell leakage through the process-wide extension id).
  EXPECT_EQ(serial[0], serial[3]);
}

}  // namespace
}  // namespace scidmz::scenario
