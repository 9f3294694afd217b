// Catalog: the Section 4 reference architectures.
//   arch_simple_dmz      — Figure 3 design vs general-purpose campus
//   arch_supercomputer   — Figure 4 DTN pool into a shared parallel fs
//   arch_bigdata_cluster — Figure 5 LHC-scale data cluster front-end
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

// --- arch_simple_dmz -------------------------------------------------------

ScenarioSpec simpleDmzCell(bool dmz, std::size_t index) {
  ScenarioSpec s;
  s.name = "arch_simple_dmz#" + std::to_string(index);
  s.topology.kind = TopologyKind::kSite;
  auto& site = s.topology.site;
  site.design = dmz ? SiteDesign::kSimpleDmz : SiteDesign::kGeneralPurpose;
  site.untunedHosts = !dmz;
  s.analysis.validate = true;
  s.analysis.assessPath = true;
  s.analysis.windowScalingBroken = !dmz;  // the firewall strips RFC1323
  WorkloadSpec w;
  w.kind = WorkloadKind::kDtnTransfer;
  w.port = 50000;
  w.bytes = dmz ? (2_GB).byteCount() : (100_MB).byteCount();
  w.timeoutS = 3600.0;
  s.workloads.push_back(w);
  return s;
}

std::vector<ScenarioSpec> simpleDmzSpecs() {
  return {simpleDmzCell(false, 0), simpleDmzCell(true, 1)};
}

void renderSimpleDmz(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"architecture"},
                      {"criticals"},
                      {"firewall"},
                      {"predicted_mbps", 1},
                      {"measured_mbps", 1}});
  const char* names[] = {"general-purpose campus", "simple science dmz"};
  double measured[2] = {0, 0};
  std::size_t criticals[2] = {0, 0};
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& o = outcomes[i];
    criticals[i] = static_cast<std::size_t>(o.result.at("validate.criticals"));
    measured[i] = o.result.at("w0.completed") != 0.0 ? mbpsOf(o, "w0.bps") : 0.0;
    const double predicted =
        o.result.has("path.predicted_bps") ? mbpsOf(o, "path.predicted_bps") : 0.0;
    const bool crossesFw = o.result.get("path.crosses_firewall", 0.0) != 0.0;
    table.addRow({names[i], static_cast<unsigned long long>(criticals[i]),
                  crossesFw ? "on-path" : "off-path", predicted, measured[i]});
  }
  table.addNote(bench::formatRow(
      "improvement: %.0fx measured (validator predicted the loser: %zu vs %zu criticals)",
      measured[1] / std::max(measured[0], 0.001), criticals[0], criticals[1]));
  table.write();
}

// --- arch_supercomputer ----------------------------------------------------

std::vector<ScenarioSpec> supercomputerSpecs() {
  std::vector<ScenarioSpec> specs;
  for (const int pool : {1, 2, 4}) {
    ScenarioSpec s;
    s.name = "arch_supercomputer#" + std::to_string(specs.size());
    s.topology.kind = TopologyKind::kSite;
    auto& site = s.topology.site;
    site.design = SiteDesign::kSupercomputer;
    site.dtnCount = pool;
    site.wan = LinkSpec{10000, 20000, 9000};
    // The remote source's archive reads slightly below its NIC rate so the
    // disk pump cannot pile unbounded backlog into the host queue when
    // several lanes share the single source.
    site.remoteStorageReadMbps = 9200;
    site.remoteStoragePerStreamCapMbps = 8000;
    WorkloadSpec w;
    w.kind = WorkloadKind::kCampaign;
    w.label = "campaign";
    w.srcCluster = "experiment";
    w.dstCluster = "center";
    w.port = 50000;
    w.files = 8;
    w.fileSizeBytes = (500_MB).byteCount();
    w.filePrefix = "shot-";
    w.fileSuffix = ".h5";
    w.timeoutS = 3600.0;
    s.workloads.push_back(w);
    specs.push_back(std::move(s));
  }
  return specs;
}

void renderSupercomputer(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"dtn_pool"},
                      {"files"},
                      {"aggregate_mbps", 1},
                      {"elapsed_s", 1},
                      {"files_visible_without_copy"}});
  const std::vector<int> pools{1, 2, 4};
  for (std::size_t i = 0; i < pools.size(); ++i) {
    const auto& o = outcomes[i];
    const double aggregateMbps =
        o.result.has("campaign.aggregate_bps") ? mbpsOf(o, "campaign.aggregate_bps") : 0.0;
    const double elapsedSecs = o.result.get("campaign.elapsed_s", 0.0);
    const auto visible = static_cast<std::size_t>(o.result.at("campaign.files_visible"));
    table.addRow({pools[i], 8, aggregateMbps, elapsedSecs,
                  static_cast<unsigned long long>(visible)});
  }
  table.addNote("every ingested file is visible on the shared filesystem the moment the"
                " DTN commits it; login nodes never copy data (Section 4.2)");
  table.addNote("pool scaling amortizes per-file ramp-up until the sender or the WAN"
                " becomes the bottleneck");
  table.write();
}

// --- arch_bigdata_cluster --------------------------------------------------

std::vector<ScenarioSpec> bigdataSpecs() {
  ScenarioSpec s;
  s.name = "arch_bigdata_cluster#0";
  s.topology.kind = TopologyKind::kSite;
  auto& site = s.topology.site;
  site.design = SiteDesign::kBigData;
  site.dtnCount = 6;
  site.wan = LinkSpec{10000, 20000, 9000};
  s.analysis.validate = true;
  // Campaign: 18 files spread across the 6-node cluster.
  WorkloadSpec campaign;
  campaign.kind = WorkloadKind::kCampaign;
  campaign.label = "campaign";
  campaign.srcCluster = "tier0";
  campaign.dstCluster = "tier1";
  campaign.port = 50000;
  campaign.files = 18;
  campaign.fileSizeBytes = (400_MB).byteCount();
  campaign.filePrefix = "aod-";
  campaign.fileSuffix = ".root";
  campaign.timeoutS = 3600.0;
  s.workloads.push_back(campaign);
  // An unsanctioned probe toward a cluster node, dropped in the
  // forwarding plane by the data-switch ACL.
  WorkloadSpec probe;
  probe.kind = WorkloadKind::kProbe;
  probe.label = "probe";
  probe.tcp.cc = CcAlgo::kReno;  // tcp::TcpConfig{} defaults
  probe.tcp.bufBytes = sim::DataSize::mebibytes(16).byteCount();
  probe.port = 22;
  probe.runS = 10.0;
  s.workloads.push_back(probe);
  return {std::move(s)};
}

void renderBigdata(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  const auto& o = outcomes[0];
  const auto criticals = static_cast<unsigned long long>(o.result.at("validate.criticals"));
  const double secs = o.result.get("campaign.elapsed_s", 0.0);
  const double mbps = o.result.has("campaign.aggregate_bps")
                          ? mbpsOf(o, "campaign.aggregate_bps")
                          : 0.0;
  bench::Table table(entry.name, entry.title, entry.paperRef, {{"metric"}, {"value"}});
  table.addRow({"validator_critical_findings", criticals});
  table.addRow({"campaign_elapsed_s", secs});
  table.addRow({"campaign_aggregate_mbps", mbps});
  table.addRow({"firewall_inspected_science_packets",
                static_cast<unsigned long long>(o.result.at("fw.inspected"))});
  table.addRow({"acl_drops", static_cast<unsigned long long>(o.result.at("sw.drops_acl"))});
  table.addRow({"unsanctioned_ssh", o.result.at("probe.connected") != 0.0 ? "connected"
                                                                          : "blocked"});
  table.addNote("science flows bypass the enterprise firewall entirely; the data-switch ACL"
                " filters unsanctioned traffic at line rate");
  table.write();
}

}  // namespace

void registerArchScenarios(ScenarioRegistry& registry) {
  registry.add({"arch_simple_dmz", "arch", "Figure 3 design vs general-purpose campus",
                "Figure 3 + Section 4.1, Dart et al. SC13", "designs", simpleDmzSpecs,
                renderSimpleDmz, nullptr});
  registry.add({"arch_supercomputer", "arch",
                "DTN pool ingestion into a shared parallel filesystem",
                "Figure 4 + Sections 4.2 / 6.4, Dart et al. SC13", "pools",
                supercomputerSpecs, renderSupercomputer, nullptr});
  registry.add({"arch_bigdata_cluster", "arch", "LHC-scale data cluster front-end",
                "Figure 5 + Section 4.3, Dart et al. SC13", "cluster", bigdataSpecs,
                renderBigdata, nullptr});
}

}  // namespace scidmz::scenario
