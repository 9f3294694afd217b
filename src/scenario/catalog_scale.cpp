// Scale catalog:
//   esnet_scale — WAN ring of DTN sites sized for the sharded scheduler
//
// One cell: a `ring` topology of 8 sites x 4 DTNs whose every host streams
// to its peer one site clockwise for 0.5 s. The spec runs on the sharded
// scheduler (domains 1, a 5 ms lookahead floor, so every WAN segment is a
// cut point), and `--domains N` re-partitions it; the per-site table (JSON
// and the view printed from it) is byte-identical at every N.
// bench/micro_shard runs the same spec for the scaling curve, and
// runEsnetScale (esnet_scale.hpp) runs it from a plain config.
#include <algorithm>
#include <vector>

#include "scenario/bench_io.hpp"
#include "scenario/esnet_scale.hpp"
#include "scenario/registry.hpp"

namespace scidmz::scenario {

namespace {

ScenarioSpec esnetScaleSpec() {
  ScenarioSpec spec;
  spec.name = "esnet_scale#0";
  spec.topology.kind = TopologyKind::kRing;  // RingTopology's defaults are this entry's
  // 1 still runs the sharded scheduler: the byte-compare baseline for
  // every --domains. The 5 ms floor keeps every WAN segment cut-eligible
  // with a fifth of the barrier epochs the 1 ms default would run.
  spec.domains = 1;
  spec.lookaheadUs = 5000;
  WorkloadSpec w;
  w.kind = WorkloadKind::kTimedFlow;
  w.tcp.bufBytes = 32 * 1024 * 1024;
  w.runS = 0.5;
  spec.workloads.push_back(w);
  return spec;
}

void renderEsnetScale(const ScenarioEntry& entry, const std::vector<CellOutcome>& cells) {
  const ScenarioSpec& spec = *cells.at(0).spec;
  const ScenarioResult& r = cells.at(0).result;
  const RingTopology& ring = spec.topology.ring;
  const WorkloadSpec& w = spec.workloads.at(0);

  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"site"}, {"hosts"}, {"flows_in"}, {"delivered_mb", 1}});
  double total = 0.0;
  for (int i = 0; i < ring.sites; ++i) {
    const double bytes =
        r.at(numberedName("w0.site", static_cast<std::size_t>(i)) + ".delivered_bits") / 8;
    total += bytes;
    table.addRow({i, ring.hostsPerSite, ring.hostsPerSite * w.streams, bytes / 1e6});
  }
  const auto byDelay = [](const LinkSpec& a, const LinkSpec& b) { return a.delayUs < b.delayUs; };
  const auto [shortest, longest] = std::minmax_element(ring.wan.begin(), ring.wan.end(), byDelay);
  table.addNote(bench::formatRow(
      "%d sites in a %g-%gms WAN ring, %llu flows (each one hop clockwise), "
      "%.1f MB total in %.1fs",
      ring.sites, static_cast<double>(shortest->delayUs) / 1e3,
      static_cast<double>(longest->delayUs) / 1e3,
      static_cast<unsigned long long>(r.at("w0.flows")), total / 1e6, w.runS));
  table.addNote("per-site delivered bytes are byte-identical at any --domains; "
                "events/s scales with domains (see bench/micro_shard)");
  table.write();
}

}  // namespace

EsnetScaleResult runEsnetScale(const EsnetScaleConfig& cfg, sim::SweepCell& cell) {
  ScenarioSpec spec = esnetScaleSpec();
  spec.seed = cfg.seed;
  spec.domains = cfg.domains;
  spec.topology.ring.sites = cfg.sites;
  spec.topology.ring.hostsPerSite = cfg.hostsPerSite;
  spec.workloads.at(0).streams = cfg.flowsPerHost;
  spec.workloads.at(0).runS = cfg.runDuration.toSeconds();
  const ScenarioResult r = runSpec(spec, cell);
  EsnetScaleResult result;
  result.flows = static_cast<std::uint64_t>(r.at("w0.flows"));
  for (int i = 0; i < cfg.sites; ++i) {
    result.deliveredBySite.push_back(static_cast<unsigned long long>(
        r.at(numberedName("w0.site", static_cast<std::size_t>(i)) + ".delivered_bits") / 8));
  }
  return result;
}

void registerScaleScenarios(ScenarioRegistry& registry) {
  registry.add({"esnet_scale", "scale", "WAN ring of DTN sites under bulk load",
                "Section 5 (ESnet backbone) + Figure 4, Dart et al. SC13", "ring",
                [] { return std::vector<ScenarioSpec>{esnetScaleSpec()}; }, renderEsnetScale,
                nullptr});
}

}  // namespace scidmz::scenario
