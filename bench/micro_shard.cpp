// Sharded-scheduler scaling: the catalog's esnet_scale ring spec at 8
// sites x 16 DTNs x 2 flows, run at domains in {1, 2, 4, 8}. Two claims:
//
//   - determinism: the per-site delivered-bytes table (exact byte counts)
//     is identical at every domain count — a partition that changes
//     results is a correctness bug, not an optimization;
//   - scaling: events/s at 8 domains must be >= 2x the 1-domain baseline,
//     enforced only on >= 8 hardware threads — conservative parallel DES
//     cannot beat itself on a serialized box — while the tables are
//     checked everywhere.
//
// Per-config events/s lands in BENCH_micro_shard.json (with the domains
// and domain_events columns) and is ratcheted by CI (tools/perf_ratchet.py).
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "scenario/bench_io.hpp"
#include "scenario/engine.hpp"
#include "scenario/registry.hpp"
#include "sim/sweep.hpp"

using namespace scidmz;

namespace {

constexpr int kDomainCounts[] = {1, 2, 4, 8};
constexpr int kSites = 8;

scenario::ScenarioSpec benchSpec(int domains) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioRegistry::builtin().find("esnet_scale")->specs().at(0);
  spec.topology.ring.sites = kSites;
  spec.topology.ring.hostsPerSite = 16;
  spec.workloads.at(0).streams = 2;
  spec.workloads.at(0).runS = 0.4;
  spec.domains = domains;
  return spec;
}

/// Exact per-site byte counts — the strict identity artifact.
std::string tableKey(const scenario::ScenarioResult& r) {
  std::string out;
  for (std::size_t i = 0; i < kSites; ++i) {
    const double bits = r.at(scenario::numberedName("w0.site", i) + ".delivered_bits");
    out += bench::formatRow("site %zu: %llu bytes\n", i,
                            static_cast<unsigned long long>(bits / 8));
  }
  return out;
}

}  // namespace

int main() {
  bench::header("micro_shard: sharded parallel DES on the esnet_scale ring",
                "DESIGN.md: sharded execution");

  // One sweep worker: domain threads are the parallelism under test.
  sim::SweepRunner sweep(1);
  std::vector<std::string> tables;
  std::vector<double> eventsPerSec;
  std::vector<unsigned long long> events;

  for (const int domains : kDomainCounts) {
    const auto spec = benchSpec(domains);
    const auto results = sweep.run<scenario::ScenarioResult>(
        1, [&spec](sim::SweepCell& cell) { return scenario::runSpec(spec, cell); },
        "domains_" + std::to_string(domains));
    const auto& run = sweep.lastRun();
    tables.push_back(tableKey(results[0]));
    events.push_back(run.totalEvents());
    eventsPerSec.push_back(run.wallSeconds > 0
                               ? static_cast<double>(run.totalEvents()) / run.wallSeconds
                               : 0.0);
  }

  bool identical = true;
  for (std::size_t i = 1; i < tables.size(); ++i) {
    if (tables[i] != tables[0]) {
      identical = false;
      std::fprintf(stderr,
                   "micro_shard: domains=%d diverged from domains=1\nbase:\n%sgot:\n%s",
                   kDomainCounts[i], tables[0].c_str(), tables[i].c_str());
    }
  }

  bench::row("%-8s %-12s %-14s %-10s", "domains", "events", "events_per_s", "speedup");
  for (std::size_t i = 0; i < tables.size(); ++i) {
    bench::row("%-8d %-12llu %-14.0f %-10.2f", kDomainCounts[i], events[i], eventsPerSec[i],
               eventsPerSec[0] > 0 ? eventsPerSec[i] / eventsPerSec[0] : 0.0);
  }

  const double speedup = eventsPerSec[0] > 0 ? eventsPerSec[3] / eventsPerSec[0] : 0.0;
  const unsigned hw = std::thread::hardware_concurrency();
  const bool enforceSpeedup = hw >= 8;
  bench::row("tables identical across domain counts: %s", identical ? "yes" : "NO");
  bench::row("8-domain speedup: %.2fx (acceptance: >= 2x%s)", speedup,
             enforceSpeedup ? ""
                            : bench::formatRow("; not enforced on %u hardware threads", hw).c_str());

  bench::writeSweepReport(sweep, "micro_shard");
  std::printf("%s", tables[0].c_str());
  return identical && (!enforceSpeedup || speedup >= 2.0) ? 0 : 1;
}
