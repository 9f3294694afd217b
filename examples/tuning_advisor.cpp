// Tuning advisor walkthrough: ask the library what a DTN on this path
// should look like (the fasterdata guidance, computed), then prove the
// recommendation by running transfers with and without it.
//
//   ./examples/tuning_advisor
#include <cstdio>

#include "core/site_builder.hpp"
#include "core/tuning.hpp"
#include "dtn/dtn_node.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace scidmz;
using namespace scidmz::sim::literals;

int main() {
  sim::Simulator simulator;
  sim::Rng rng{31};
  net::Context ctx{simulator, rng};
  net::Topology topo{ctx};

  // A long path: 10G, 80ms RTT (transatlantic-ish), with a little residual
  // loss the measurement host reported.
  core::SiteConfig config;
  config.wan.rate = 10_Gbps;
  config.wan.delay = 40_ms;
  auto site = core::buildSimpleScienceDmz(topo, config);

  core::TuningInputs inputs;
  inputs.expectedLossRate = 2e-6;  // from the owamp archive, say
  const auto rec = core::recommendTuning(topo, site->remoteDtn->host().address(),
                                         site->primaryDtn()->host().address(), inputs);
  if (!rec) {
    std::puts("path unroutable");
    return 1;
  }
  std::puts("recommended DTN configuration for this path:");
  std::fputs(rec->rationale.c_str(), stdout);

  auto runTransfer = [&](dtn::DtnProfile profile, const char* label, sim::DataSize bytes,
                         std::uint16_t port) {
    auto& storage = site->addStorage(ctx, dtn::StorageProfile::parallelFsBackend());
    auto& sender = site->addDtnNode(site->remoteDtn->host(), storage, profile);
    dtn::DtnTransfer transfer{sender, *site->primaryDtn(), std::string{label} + ".dat", bytes,
                              port};
    transfer.start();
    simulator.runFor(600_s);
    std::printf("%-24s %s %s in %s (%.1f MB/s)\n", label,
                transfer.finished() ? "moved" : "DID NOT FINISH",
                sim::toString(bytes).c_str(),
                sim::toString(transfer.result().elapsed).c_str(),
                transfer.result().averageRate.toMBps());
    return transfer.result().averageRate.toMbps();
  };

  std::puts("\nproof by transfer:");
  // The untuned host crawls at ~6.5 Mbps (64 KB / 80 ms); give it a small
  // file so the demo stays snappy. Rates, not sizes, are being compared.
  const double untuned =
      runTransfer(dtn::DtnProfile::untunedGeneralPurpose(), "untuned-defaults", 64_MB, 50200);
  const double tuned = runTransfer(rec->asDtnProfile(), "advisor-recommended", 4_GB, 50300);
  std::printf("\nadvisor speedup: %.0fx\n", tuned / untuned);
  return tuned > untuned ? 0 : 1;
}
