// Catalog: the Section 5 / Section 3.2 ablations.
//   ablation_buffer_fanin     — egress buffer sweep under fan-in
//   ablation_pacing           — bursty vs paced senders into a slower egress
//   ablation_parallel_streams — streams x MTU on a lossy 50ms path
//   ablation_firewall_vs_acl  — firewall appliance vs router ACLs
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/bench_io.hpp"
#include "sim/units.hpp"
#include "scenario/registry.hpp"

namespace scidmz::scenario {
namespace {

using namespace scidmz::sim::literals;

double mbpsOf(const CellOutcome& o, const std::string& key) {
  return sim::DataRate::bitsPerSecond(static_cast<std::uint64_t>(o.result.at(key))).toMbps();
}

// --- ablation_buffer_fanin -------------------------------------------------

const std::vector<int>& faninSenderCounts() {
  static const std::vector<int> counts{2, 4, 8};
  return counts;
}

const std::vector<std::uint64_t>& faninBuffers() {
  static const std::vector<std::uint64_t> buffers{
      (128_KiB).byteCount(), sim::DataSize::mebibytes(1).byteCount(),
      sim::DataSize::mebibytes(8).byteCount(), sim::DataSize::mebibytes(32).byteCount()};
  return buffers;
}

std::vector<ScenarioSpec> faninSpecs() {
  std::vector<ScenarioSpec> specs;
  for (const int senders : faninSenderCounts()) {
    for (const std::uint64_t buffer : faninBuffers()) {
      ScenarioSpec s;
      s.name = "ablation_buffer_fanin#" + std::to_string(specs.size());
      s.topology.kind = TopologyKind::kFanin;
      auto& f = s.topology.fanin;
      f.senders = senders;
      f.egressBufferBytes = buffer;
      f.egressLink = LinkSpec{10000, 5000, 9000};  // the WAN beyond the aggregation point
      f.senderLink = LinkSpec{10000, 20, 9000};    // senders as fast as the egress: fan-in
      WorkloadSpec w;
      w.kind = WorkloadKind::kConvergingFlows;
      w.tcp.cc = CcAlgo::kCubic;
      w.tcp.bufBytes = (16_MB).byteCount();
      w.port = 6000;
      w.warmupS = 3.0;
      w.windowS = 6.0;
      s.workloads.push_back(w);
      specs.push_back(std::move(s));
    }
  }
  return specs;
}

void renderFanin(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"senders"}, {"egress_buffer"}, {"aggregate_mbps", 1}, {"drop_pct", 3}});
  std::size_t next = 0;
  for (const int senders : faninSenderCounts()) {
    for (std::size_t b = 0; b < faninBuffers().size(); ++b) {
      const auto& o = outcomes[next++];
      const double aggregateMbps = o.result.at("w0.delta_bits") / 6.0 / 1e6;
      const double dropPct = o.result.at("sw.egress_drop_fraction") * 100.0;
      table.addRow({senders, sim::toString(sim::DataSize::bytes(faninBuffers()[b])),
                    aggregateMbps, dropPct});
    }
  }
  table.addNote("shallow buffers shave multiple Gbps off the aggregate as coincident"
                " bursts drop and flows stall in recovery; science-DMZ-class buffers"
                " carry the same fan-in at line rate");
  table.write();
}

// --- ablation_pacing -------------------------------------------------------

const std::vector<std::uint64_t>& pacingBuffers() {
  static const std::vector<std::uint64_t> buffers{
      (256_KiB).byteCount(), (512_KiB).byteCount(), sim::DataSize::mebibytes(2).byteCount(),
      sim::DataSize::mebibytes(8).byteCount()};
  return buffers;
}

std::vector<ScenarioSpec> pacingSpecs() {
  std::vector<ScenarioSpec> specs;
  for (const std::uint64_t buffer : pacingBuffers()) {
    for (const bool paced : {false, true}) {
      ScenarioSpec s;
      s.name = "ablation_pacing#" + std::to_string(specs.size());
      s.topology.kind = TopologyKind::kPath;
      auto& p = s.topology.path;
      p.middlebox = Middlebox::kSwitch;
      p.midName = "agg";
      p.egressBufferBytes = buffer;
      p.link = LinkSpec{10000, 10000, 9000};  // 10G sender side
      p.link2 = LinkSpec{1000, 10000, 9000};  // 1G egress: the burst bottleneck
      WorkloadSpec w;
      w.kind = WorkloadKind::kTimedFlow;
      w.tcp.cc = CcAlgo::kHtcp;
      w.tcp.bufBytes = (8_MB).byteCount();
      w.tcp.pacing = paced;
      w.runS = 20.0;
      s.workloads.push_back(w);
      specs.push_back(std::move(s));
    }
  }
  return specs;
}

void renderPacing(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"egress_buffer"},
                      {"bursty_mbps", 1},
                      {"bursty_retx"},
                      {"paced_mbps", 1},
                      {"paced_retx"}});
  for (std::size_t i = 0; i < pacingBuffers().size(); ++i) {
    const auto& bursty = outcomes[i * 2];
    const auto& paced = outcomes[i * 2 + 1];
    table.addRow({sim::toString(sim::DataSize::bytes(pacingBuffers()[i])),
                  bursty.result.at("w0.delivered_bits") / 20.0 / 1e6,
                  static_cast<unsigned long long>(bursty.result.at("w0.retx")),
                  paced.result.at("w0.delivered_bits") / 20.0 / 1e6,
                  static_cast<unsigned long long>(paced.result.at("w0.retx"))});
  }
  table.addNote("line-rate bursts need the egress buffer to hold them; pacing shrinks"
                " the required buffer — the host-side complement to the deep-buffered"
                " switch");
  table.write();
}

// --- ablation_parallel_streams ---------------------------------------------

const std::vector<int>& streamCounts() {
  static const std::vector<int> counts{1, 2, 4, 8, 16};
  return counts;
}

std::vector<ScenarioSpec> streamsSpecs() {
  std::vector<ScenarioSpec> specs;
  for (const int streams : streamCounts()) {
    for (const std::uint64_t mtu : {std::uint64_t{1500}, std::uint64_t{9000}}) {
      ScenarioSpec s;
      s.name = "ablation_parallel_streams#" + std::to_string(specs.size());
      s.topology.kind = TopologyKind::kPath;
      auto& p = s.topology.path;
      p.link = LinkSpec{10000, 25000, mtu};  // 50ms RTT: a coast-to-coast science path
      LossSpec l;
      l.rate = 1e-4;
      l.rngFork = 4;
      p.losses.push_back(l);
      WorkloadSpec w;
      w.kind = WorkloadKind::kParallelTransfer;
      w.tcp.cc = CcAlgo::kReno;  // the worst case streams rescue
      w.tcp.bufBytes = (32_MB).byteCount();
      w.port = 2811;
      w.bytes = (400_MB).byteCount();
      w.streams = streams;
      w.timeoutS = 1200.0;
      s.workloads.push_back(w);
      specs.push_back(std::move(s));
    }
  }
  return specs;
}

double streamsMbps(const CellOutcome& o) {
  if (o.result.at("w0.finished") == 0.0) return 0.0;
  return static_cast<double>((400_MB).bitCount()) / o.result.at("w0.elapsed_s") / 1e6;
}

void renderStreams(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"streams"}, {"mbps_mtu1500", 1}, {"mbps_mtu9000", 1}});
  for (std::size_t i = 0; i < streamCounts().size(); ++i) {
    table.addRow(
        {streamCounts()[i], streamsMbps(outcomes[i * 2]), streamsMbps(outcomes[i * 2 + 1])});
  }
  table.addNote("both knobs act through the Mathis equation: N streams multiply the"
                " aggregate window N-fold; jumbo frames multiply MSS (and thus the"
                " loss-limited rate) 6-fold");
  table.write();
}

// --- ablation_firewall_vs_acl ----------------------------------------------

const std::vector<int>& fvaRtts() {
  static const std::vector<int> rtts{5, 20, 60};
  return rtts;
}

/// One 10G science flow through the chosen middlebox at the given RTT.
/// Sequence checking stays off on the firewall cells: this ablation
/// isolates the engine/buffer pathology (the header-rewrite pathology is
/// usecase_pennstate).
ScenarioSpec fvaScienceCell(bool useFirewall, int rttMs, std::size_t index) {
  ScenarioSpec s;
  s.name = "ablation_firewall_vs_acl#" + std::to_string(index);
  s.topology.kind = TopologyKind::kPath;
  auto& p = s.topology.path;
  p.src = HostSpec{"remote", "198.128.1.1"};
  p.dst = HostSpec{"dtn", "10.10.1.10"};
  p.link = LinkSpec{10000, static_cast<std::uint64_t>(rttMs) * 500, 9000};
  if (useFirewall) {
    p.middlebox = Middlebox::kFirewall;
    p.midName = "fw";
    p.firewallSeqChecking = false;
  } else {
    p.middlebox = Middlebox::kSwitch;
    p.midName = "dmz-switch";
    p.aclPermitAllDefaultDeny = true;  // the compiled DMZ policy shape
  }
  WorkloadSpec w;
  w.tcp.cc = CcAlgo::kHtcp;
  w.tcp.bufBytes = (256_MB).byteCount();
  w.warmupS = 5.0;
  w.windowS = 15.0;
  s.workloads.push_back(w);
  return s;
}

/// The converse cell: hundreds of short business flows through the same
/// firewall (sequence checking and all), which it handles perfectly well.
ScenarioSpec fvaBusinessCell(std::size_t index) {
  ScenarioSpec s;
  s.name = "ablation_firewall_vs_acl#" + std::to_string(index);
  s.topology.kind = TopologyKind::kEnterpriseEdge;
  WorkloadSpec w;
  w.kind = WorkloadKind::kBackground;
  w.port = 20000;
  w.flowsPerSecond = 150.0;
  w.runS = 30.0;
  w.drainS = 10.0;
  w.rngFork = 3;
  s.workloads.push_back(w);
  return s;
}

std::vector<ScenarioSpec> fvaSpecs() {
  std::vector<ScenarioSpec> specs;
  for (const int rtt : fvaRtts()) {
    specs.push_back(fvaScienceCell(true, rtt, specs.size()));
    specs.push_back(fvaScienceCell(false, rtt, specs.size()));
  }
  specs.push_back(fvaBusinessCell(specs.size()));
  return specs;
}

void renderFva(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"rtt_ms"},
                      {"firewall_path_mbps", 1},
                      {"acl_switch_path_mbps", 1},
                      {"firewall_drops"}});
  for (std::size_t i = 0; i < fvaRtts().size(); ++i) {
    const auto& viaFw = outcomes[i * 2];
    const auto& viaAcl = outcomes[i * 2 + 1];
    table.addRow({fvaRtts()[i], mbpsOf(viaFw, "w0.bps"), mbpsOf(viaAcl, "w0.bps"),
                  static_cast<unsigned long long>(viaFw.result.at("fw.drops_input_buffer"))});
  }
  const auto& business = outcomes.back();
  const auto flows = static_cast<unsigned long long>(business.result.at("w0.flows_started"));
  const auto inspected = static_cast<std::uint64_t>(business.result.at("fw.inspected"));
  const auto drops = static_cast<std::uint64_t>(business.result.at("fw.drops_input_buffer"));
  const double dropFrac = static_cast<double>(drops) /
                          static_cast<double>(std::max<std::uint64_t>(inspected + drops, 1));
  table.addNote(bench::formatRow(
      "business mix through the SAME firewall: %llu flows, %.4f%% buffer drops", flows,
      dropFrac * 100.0));
  table.addNote("the firewall is fine for what it was built for (many small flows) and"
                " ruinous for single line-rate science flows; ACLs filter at line rate");
  table.write();
}

}  // namespace

void registerAblationScenarios(ScenarioRegistry& registry) {
  registry.add({"ablation_buffer_fanin", "ablation", "egress buffer sweep under fan-in",
                "Section 5 (fan-in and buffer sizing), Dart et al. SC13", "fanin_grid",
                faninSpecs, renderFanin, nullptr});
  registry.add({"ablation_pacing", "ablation", "bursty vs paced senders into a slower egress",
                "Section 5 (TCP burst behaviour) + DTN tuning guidance, Dart et al. SC13",
                "buffer_grid", pacingSpecs, renderPacing, nullptr});
  registry.add({"ablation_parallel_streams", "ablation", "streams x MTU on a lossy 50ms path",
                "Section 3.2 (DTN tooling) + Section 2.1 (MSS in Eq. 1), Dart et al. SC13",
                "streams_grid", streamsSpecs, renderStreams, nullptr});
  registry.add({"ablation_firewall_vs_acl", "ablation", "the science path's middlebox choice",
                "Section 5 (firewall internals, ACL alternative), Dart et al. SC13", "paths",
                fvaSpecs, renderFva, nullptr});
}

}  // namespace scidmz::scenario
