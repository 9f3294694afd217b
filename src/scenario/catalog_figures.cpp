// Catalog: the paper's headline figures and Section 2 anecdotes.
//   fig1_tcp_loss_rtt      — Figure 1 throughput-vs-RTT-under-loss grid
//   fig2_dashboard_mesh    — Figure 2 perfSONAR mesh dashboard (native)
//   soft_failure_linecard  — Section 2 failing line card, plus telemetry
//   eqn2_window_sizing     — Equation 2 BDP window sizing
// Each entry's specs() builds the declarative cells; render() builds the
// entry's table from the raw metrics. fig2 drives the perfSONAR mesh
// directly (continuous measurement over one long-lived simulation does not
// decompose into independent scenario cells), so it stays a native entry.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "net/loss.hpp"
#include "perfsonar/alerts.hpp"
#include "perfsonar/dashboard.hpp"
#include "perfsonar/mesh.hpp"
#include "scenario/bench_io.hpp"
#include "sim/units.hpp"
#include "scenario/harness.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "tcp/mathis.hpp"
#include "telemetry/diagnosis.hpp"

namespace scidmz::scenario {
namespace {

using namespace scidmz::sim::literals;

double mbpsOf(const CellOutcome& o, const std::string& key) {
  return sim::DataRate::bitsPerSecond(static_cast<std::uint64_t>(o.result.at(key))).toMbps();
}

// --- fig1_tcp_loss_rtt -----------------------------------------------------

const std::vector<int>& fig1Rtts() {
  static const std::vector<int> rtts{1, 10, 20, 50, 100};
  return rtts;
}

const std::vector<double>& fig1Losses() {
  static const std::vector<double> losses{0.0, 1e-5, 1.0 / 22000.0, 2e-4, 1e-3};
  return losses;
}

std::vector<ScenarioSpec> fig1Specs() {
  std::vector<ScenarioSpec> specs;
  for (const double loss : fig1Losses()) {
    for (const int rtt : fig1Rtts()) {
      for (const CcAlgo algo : {CcAlgo::kReno, CcAlgo::kHtcp}) {
        ScenarioSpec s;
        s.name = "fig1_tcp_loss_rtt#" + std::to_string(specs.size());
        s.topology.kind = TopologyKind::kPath;
        auto& p = s.topology.path;
        p.link.rateMbps = 10000;
        p.link.delayUs = static_cast<std::uint64_t>(rtt) * 500;
        p.link.mtuBytes = 9000;
        if (loss > 0) {
          LossSpec l;
          l.rate = loss;
          p.losses.push_back(l);
        }
        WorkloadSpec w;
        w.tcp.cc = algo;
        w.tcp.bufBytes = (256_MB).byteCount();  // above the 125 MB BDP at 100 ms
        // Measurement horizon scaled to the congestion-avoidance sawtooth:
        // several cycles, bounded so the grid stays minutes.
        double windowSecs = 10.0;
        if (loss > 0) {
          windowSecs = std::clamp(8.2 * (static_cast<double>(rtt) * 1e-3) / std::sqrt(loss),
                                  15.0, 90.0);
        }
        w.windowS = windowSecs;
        w.warmupS = std::clamp(windowSecs / 3.0, 5.0, 20.0);
        s.workloads.push_back(w);
        specs.push_back(std::move(s));
      }
    }
  }
  return specs;
}

void renderFig1(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"rtt_ms"}, {"loss"}, {"mathis_mbps", 1}, {"reno_mbps"}, {"htcp_mbps"}});
  std::size_t next = 0;
  for (const double loss : fig1Losses()) {
    for (const int rtt : fig1Rtts()) {
      const auto predicted =
          loss > 0 ? tcp::mathisThroughput(8960_B, sim::Duration::milliseconds(rtt), loss)
                   : 10_Gbps;
      const double capped = std::min(predicted.toMbps(), (10_Gbps).toMbps());
      const auto& reno = outcomes[next++];
      const auto& htcp = outcomes[next++];
      const auto rate = [](const CellOutcome& o) {
        return bench::mbpsCell(mbpsOf(o, "w0.bps"), o.result.at("w0.established") != 0.0);
      };
      table.addRow({rtt, loss, capped, rate(reno), rate(htcp)});
    }
  }
  table.addNote("loss-free row flat near 10000 Mbps at all RTTs");
  table.addNote("each lossy family falls ~1/RTT; families drop ~1/sqrt(loss)");
  table.addNote("htcp >= reno at high RTT x loss (the paper's measured gap)");
  table.write();
}

// --- fig2_dashboard_mesh (native) ------------------------------------------

struct MeshResult {
  std::vector<std::string> lines;
  int degradedWithCard = 0;
  int degradedAfterRepair = 0;
  std::size_t alertsRaised = 0;
};

MeshResult runMesh(sim::SweepCell& cell) {
  MeshResult result;
  std::vector<std::string>& out = result.lines;

  Scenario s;
  // Star of four sites around a WAN core; 10G, 10ms spokes.
  auto& core = s.topo.addRouter("esnet-core");
  const char* names[] = {"lbl", "anl", "ornl", "slac"};
  std::vector<perfsonar::MeshSite> sites;
  net::Link* lblUplink = nullptr;
  for (int i = 0; i < 4; ++i) {
    auto& host = s.topo.addHost(std::string{"ps-"} + names[i],
                                net::Address(198, 129, 0, static_cast<std::uint8_t>(i + 1)));
    net::LinkParams spoke;
    spoke.rate = 10_Gbps;
    spoke.delay = 10_ms;
    spoke.mtu = 9000_B;
    auto& link = s.topo.connect(host, core, spoke);
    if (i == 0) lblUplink = &link;
    sites.push_back(perfsonar::MeshSite{names[i], &host});
  }
  s.topo.computeRoutes();

  perfsonar::MeasurementArchive archive;
  perfsonar::MeshRunner::Options options;
  options.lossReportInterval = 10_s;
  // Short tests with idle gaps: enough to rate every one of the 12 ordered
  // pairs while keeping the simulated byte volume (and wall time) modest.
  options.throughputTestGap = 3_s;
  options.throughputTestDuration = 2_s;
  options.owamp.interval = 10_ms;
  perfsonar::MeshRunner mesh{s.ctx, sites, archive, options};

  // Science-path policy: any sustained probe loss is a failure, and a
  // path dropping below 60% of its own baseline is investigated.
  perfsonar::SoftFailureOptions detectorOptions;
  detectorOptions.lossThreshold = 5e-4;
  detectorOptions.throughputDropFraction = 0.6;
  perfsonar::SoftFailureDetector detector{archive, detectorOptions};
  std::size_t alertCount = 0;
  detector.onAlert = [&alertCount, &out](const perfsonar::Alert& a) {
    ++alertCount;
    out.push_back(bench::formatRow("  alert @%s: %s -> %s (%s)", sim::toString(a.at).c_str(),
                                   a.src.c_str(), a.dst.c_str(), a.metric.c_str()));
  };

  // Healthy baseline first (regression detection needs one), then the card
  // starts dropping 1/22000 of everything LBL transmits.
  mesh.start();
  for (int i = 0; i < 8; ++i) {
    s.simulator.runFor(10_s);
    detector.evaluate(s.simulator.now());
  }
  out.push_back("t=80s: lbl's uplink line card begins dropping 1/22000 packets");
  lblUplink->setLossModel(0, std::make_unique<net::RandomLoss>(1.0 / 22000.0, s.rng.fork(2)));
  for (int i = 0; i < 15; ++i) {
    s.simulator.runFor(10_s);
    detector.evaluate(s.simulator.now());
  }

  // 2s tests only reach ~5-7 Gbps through slow start on a clean 40ms-RTT
  // path; rate against that expectation rather than full line rate.
  perfsonar::Dashboard dashboard{archive, mesh.siteNames(), 5000.0};
  out.push_back("");
  out.push_back("dashboard with the failing line card on lbl's uplink:");
  out.push_back(dashboard.render());
  result.degradedWithCard = dashboard.countAtRating(perfsonar::CellRating::kBad) +
                            dashboard.countAtRating(perfsonar::CellRating::kDegraded);
  result.alertsRaised = alertCount;

  out.push_back("");
  out.push_back("repairing the line card and re-measuring...");
  lblUplink->repair();
  s.simulator.runFor(120_s);
  out.push_back(dashboard.render());
  result.degradedAfterRepair = dashboard.countAtRating(perfsonar::CellRating::kBad) +
                               dashboard.countAtRating(perfsonar::CellRating::kDegraded);
  mesh.stop();
  finishCell(s, cell);
  return result;
}

void runFig2Native(const ScenarioEntry& entry) {
  sim::SweepRunner sweep;
  const auto results = sweep.run<MeshResult>(
      1, [](sim::SweepCell& cell) { return runMesh(cell); }, "mesh");
  const MeshResult& mesh = results[0];
  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"phase"}, {"degraded_bad_cells"}, {"alerts_raised"}});
  table.addRow({"with_failing_card", mesh.degradedWithCard,
                static_cast<unsigned long long>(mesh.alertsRaised)});
  table.addRow({"after_repair", mesh.degradedAfterRepair,
                static_cast<unsigned long long>(mesh.alertsRaised)});
  table.addNote("1/22000 loss on lbl's uplink impairs the lbl-sourced dashboard row;"
                " repair clears it");
  table.write();
  for (const auto& line : mesh.lines) bench::row("%s", line.c_str());
  bench::writeSweepReport(sweep, entry.name.c_str());
}

// --- soft_failure_linecard -------------------------------------------------

TcpSpec softFailureTcp() {
  TcpSpec tcp;
  tcp.cc = CcAlgo::kHtcp;
  tcp.bufBytes = (256_MB).byteCount();
  return tcp;
}

ScenarioSpec softFailureCell(int rttMs, bool broken, std::size_t index) {
  ScenarioSpec s;
  s.name = "soft_failure_linecard#" + std::to_string(index);
  s.topology.kind = TopologyKind::kPath;
  auto& p = s.topology.path;
  p.middlebox = Middlebox::kRouter;
  p.midName = "line-card-router";
  p.link.rateMbps = 10000;
  p.link.delayUs = static_cast<std::uint64_t>(rttMs) * 250;
  p.link.mtuBytes = 9000;
  if (broken) {
    LossSpec l;
    l.segment = 1;  // the router->b line card
    l.kind = LossKind::kPeriodic;
    l.period = 22000;
    p.losses.push_back(l);
  }
  WorkloadSpec w;
  w.tcp = softFailureTcp();
  w.warmupS = 5.0;
  w.windowS = 20.0;
  s.workloads.push_back(w);
  return s;
}

std::vector<ScenarioSpec> softFailureSpecs() {
  std::vector<ScenarioSpec> specs;
  for (const int rtt : {2, 10, 40, 80}) {
    for (const bool broken : {false, true}) {
      specs.push_back(softFailureCell(rtt, broken, specs.size()));
    }
  }
  return specs;
}

/// Rerun the broken 40 ms path with telemetry armed and name the failing
/// hop from the recorded counters alone. This stays native: localizeLoss
/// and the cwnd-series corroboration need the live telemetry::Snapshot,
/// not just the flat metrics a spec run returns.
void diagnoseFromTelemetry() {
  Scenario s;
  s.ctx.telemetry().enable();
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& r = s.topo.addRouter("line-card-router");
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  net::LinkParams wan;
  wan.rate = 10_Gbps;
  wan.delay = sim::Duration::microseconds(40 * 250);
  wan.mtu = 9000_B;
  s.topo.connect(a, r, wan);
  auto& badLink = s.topo.connect(r, b, wan);
  badLink.setLossModel(0, std::make_unique<net::PeriodicLoss>(22000));
  s.topo.computeRoutes();

  tcp::TcpConfig cfg;
  cfg.algorithm = tcp::CcAlgorithm::kHtcp;
  cfg.sndBuf = 256_MB;
  cfg.rcvBuf = 256_MB;
  SteadyFlow flow{s, a, b, cfg};
  const double brokenMbps = flow.measure(5_s, 20_s).toMbps();

  const auto snapshot = s.ctx.telemetry().snapshot();
  const auto diagnosis = telemetry::localizeLoss(snapshot);

  bench::row("%s", "");
  bench::row("telemetry diagnosis (40 ms RTT, broken path at %.1f Mbps, probes only):",
             brokenMbps);
  bench::row("  %-44s %s", "loss/drop counter", "count");
  for (const auto& suspect : diagnosis.suspects) {
    bench::row("  %-44s %llu", suspect.point.c_str(),
               static_cast<unsigned long long>(suspect.count));
  }
  if (const auto* culprit = diagnosis.culprit()) {
    bench::row("  => failing hop: %s", culprit->point.c_str());
  } else {
    bench::row("  => no loss recorded (unexpected on the broken path)");
  }
  for (const auto& series : snapshot.series) {
    // The sender's cwnd probe corroborates the diagnosis: sawtooth collapse.
    if (series.name.size() > 11 &&
        series.name.compare(series.name.size() - 11, 11, "/cwnd_bytes") == 0 &&
        series.sampleCount > 0 && series.max > series.min) {
      bench::row("  sender cwnd over the run: min %.0f B, max %.0f B (%zu samples)", series.min,
                 series.max, series.sampleCount);
      break;
    }
  }

  // Artifacts for CI, beside the table JSON: the packet-level trace
  // (scidmz.frbin.v1; `scidmz_run convert` makes JSONL of it) and the
  // summary snapshot (scidmz.telemetry.v1).
  const std::string tracePath = bench::artifactPath("soft_failure_linecard.trace.frbin");
  if (!tracePath.empty()) {
    if (!s.ctx.telemetry().writeTrace(tracePath)) {
      std::fprintf(stderr, "[telemetry] could not write %s\n", tracePath.c_str());
    }
    std::ofstream snap(bench::artifactPath("soft_failure_linecard.telemetry.json"),
                       std::ios::binary);
    if (snap) snap << snapshot.toJson() << "\n";
  }
}

void renderSoftFailure(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"rtt_ms"},
                      {"clean_mbps", 1},
                      {"with_card_mbps", 1},
                      {"local_drop_mbps", 3},
                      {"collapse_factor", 0}});
  const std::vector<int> rtts{2, 10, 40, 80};
  for (std::size_t i = 0; i < rtts.size(); ++i) {
    const auto& clean = outcomes[2 * i];
    const auto& broken = outcomes[2 * i + 1];
    const double cleanMbps = mbpsOf(clean, "w0.bps");
    const double brokenMbps = mbpsOf(broken, "w0.bps");
    // The device-local view: bits actually dropped per second over the
    // 25 s (warmup + window) run.
    const double lostBits = broken.result.at("seg1.lost") * 9000.0 * 8.0;
    const double localLossMbps = lostBits / 25.0 / 1e6;
    const double collapse = cleanMbps / std::max(brokenMbps, 1.0);
    table.addRow({rtts[i], cleanMbps, brokenMbps, localLossMbps, collapse});
  }
  table.addNote("the card itself loses <1 Mbps of traffic, invisible to error counters,"
                " while end-to-end TCP loses orders of magnitude more");
  table.write();

  diagnoseFromTelemetry();
}

// --- eqn2_window_sizing ----------------------------------------------------

struct Eqn2Case {
  sim::DataRate rate;
  sim::Duration rtt;
  std::uint64_t rateMbps;
  std::uint64_t delayUs;  ///< one-way: rtt / 2
};

const std::vector<Eqn2Case>& eqn2Cases() {
  static const std::vector<Eqn2Case> cases{
      {100_Mbps, 10_ms, 100, 5000},   {1_Gbps, 10_ms, 1000, 5000},
      {1_Gbps, 50_ms, 1000, 25000},   {10_Gbps, 10_ms, 10000, 5000},
      {10_Gbps, 100_ms, 10000, 50000}};
  return cases;
}

std::vector<ScenarioSpec> eqn2Specs() {
  std::vector<ScenarioSpec> specs;
  for (const auto& c : eqn2Cases()) {
    const auto window = tcp::bandwidthDelayWindow(c.rate, c.rtt);
    const std::uint64_t tuned = window.byteCount() * 3;
    for (const std::uint64_t buf : {(64_KiB).byteCount(), tuned}) {
      ScenarioSpec s;
      s.name = "eqn2_window_sizing#" + std::to_string(specs.size());
      s.topology.kind = TopologyKind::kPath;
      s.topology.path.link.rateMbps = c.rateMbps;
      s.topology.path.link.delayUs = c.delayUs;
      s.topology.path.link.mtuBytes = 1500;
      WorkloadSpec w;
      w.tcp.cc = CcAlgo::kCubic;
      w.tcp.bufBytes = buf;
      w.warmupS = 3.0;
      w.windowS = 5.0;
      s.workloads.push_back(w);
      specs.push_back(std::move(s));
    }
  }
  return specs;
}

void renderEqn2(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"rate"},
                      {"rtt_ms"},
                      {"required_window_bytes"},
                      {"mbps_64KB_buf", 1},
                      {"mbps_tuned_buf", 1}});
  std::size_t next = 0;
  for (const auto& c : eqn2Cases()) {
    const auto window = tcp::bandwidthDelayWindow(c.rate, c.rtt);
    const double small = mbpsOf(outcomes[next++], "w0.bps");
    const double big = mbpsOf(outcomes[next++], "w0.bps");
    table.addRow({sim::toString(c.rate), c.rtt.toMillis(),
                  static_cast<unsigned long long>(window.byteCount()), small, big});
  }
  table.addNote(bench::formatRow(
      "paper example: 1 Gbps x 10 ms needs %s; the 64KB default is ~20x too small, capping"
      " throughput near 50 Mbps regardless of link speed",
      sim::toString(tcp::bandwidthDelayWindow(1_Gbps, 10_ms)).c_str()));
  table.write();
}

}  // namespace

void registerFigureScenarios(ScenarioRegistry& registry) {
  registry.add({"fig1_tcp_loss_rtt", "figure",
                "throughput vs RTT under loss (10G hosts, 9K MTU)",
                "Figure 1 + Section 2.1 (Mathis equation), Dart et al. SC13", "grid",
                fig1Specs, renderFig1, nullptr});
  registry.add({"fig2_dashboard_mesh", "figure",
                "perfSONAR mesh dashboard with a soft failure",
                "Figure 2 + Section 3.3, Dart et al. SC13", "mesh", nullptr, nullptr,
                runFig2Native});
  registry.add({"soft_failure_linecard", "figure",
                "1/22000 loss, local vs end-to-end damage",
                "Section 2 failing-line-card anecdote, Dart et al. SC13", "rtt_grid",
                softFailureSpecs, renderSoftFailure, nullptr});
  registry.add({"eqn2_window_sizing", "figure",
                "BDP window requirement, analytic + simulated",
                "Equation 2 + Section 6.2, Dart et al. SC13", "cases",
                eqn2Specs, renderEqn2, nullptr});
}

}  // namespace scidmz::scenario
