// Scale catalog:
//   esnet_scale — WAN ring of DTN sites sized for the sharded scheduler
//
// The entry is native: it drives the sharded harness directly (ring
// construction + attachShards), which the spec engine's path-topology
// schema cannot express. The per-site table (JSON and the view printed
// from it) is byte-identical at every --domains; bench/micro_shard reuses
// runEsnetScale() for the scaling curve.
#include <cstdint>

#include "scenario/bench_io.hpp"
#include "scenario/esnet_scale.hpp"
#include "scenario/registry.hpp"
#include "scenario/shard.hpp"
#include "sim/sweep.hpp"

namespace scidmz::scenario {

namespace {

void runEsnetScaleNative(const ScenarioEntry& entry) {
  EsnetScaleConfig cfg;  // catalog defaults: 8 sites x 4 DTNs, 0.5 s
  cfg.domains = processDomainsOverride().value_or(1);

  sim::SweepRunner sweep(1);
  const auto results = sweep.run<EsnetScaleResult>(
      1, [&cfg](sim::SweepCell& cell) { return runEsnetScale(cfg, cell); }, "ring");
  const EsnetScaleResult& r = results[0];

  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"site"}, {"hosts"}, {"flows_in"}, {"delivered_mb", 1}});
  unsigned long long total = 0;
  for (int i = 0; i < cfg.sites; ++i) {
    const unsigned long long bytes = r.deliveredBySite[static_cast<std::size_t>(i)];
    total += bytes;
    table.addRow({i, cfg.hostsPerSite, cfg.hostsPerSite * cfg.flowsPerHost,
                  static_cast<double>(bytes) / 1e6});
  }
  table.addNote(bench::formatRow(
      "%d sites in a 10-14ms WAN ring, %llu flows (each one hop clockwise), "
      "%.1f MB total in %.1fs",
      cfg.sites, static_cast<unsigned long long>(r.flows),
      static_cast<double>(total) / 1e6, cfg.runDuration.toSeconds()));
  table.addNote("per-site delivered bytes are byte-identical at any --domains; "
                "events/s scales with domains (see bench/micro_shard)");
  table.write();
  bench::writeSweepReport(sweep, entry.name.c_str());
}

}  // namespace

void registerScaleScenarios(ScenarioRegistry& registry) {
  registry.add({"esnet_scale", "scale", "WAN ring of DTN sites under bulk load",
                "Section 5 (ESnet backbone) + Figure 4, Dart et al. SC13", "ring",
                nullptr, nullptr, runEsnetScaleNative});
}

}  // namespace scidmz::scenario
