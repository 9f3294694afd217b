// Quickstart: build a simple Science DMZ (Figure 3 of the paper), validate
// it against the four design patterns, move a 2 GB dataset from a remote
// collaborator to the local DTN, and print what happened.
//
//   ./examples/quickstart
#include <cstdio>

#include "core/report.hpp"
#include "core/site_builder.hpp"
#include "dtn/dtn_node.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace scidmz;
using namespace scidmz::sim::literals;

int main() {
  // Every scenario is one Simulator + one seeded Rng + one Context.
  sim::Simulator simulator;
  sim::Rng rng{2013};
  net::Context ctx{simulator, rng};
  net::Topology topo{ctx};

  // A 10G WAN with 20ms RTT to the collaborator, jumbo frames end to end.
  core::SiteConfig config;
  config.wan.rate = 10_Gbps;
  config.wan.delay = 10_ms;
  config.firewall.tcpSequenceChecking = false;  // a well-run enterprise edge
  auto site = core::buildSimpleScienceDmz(topo, config);

  // Static design review before any packet flows.
  const auto findings = core::validate(*site);
  std::fputs(core::renderSiteReport(*site, findings).c_str(), stdout);

  // Move a dataset: remote DTN -> local DTN, GridFTP-style parallel
  // streams, read from and written to real (simulated) storage.
  dtn::DtnTransfer transfer{*site->remoteDtn, *site->primaryDtn(), "climate-run-042.tar",
                            2_GB, 50000};
  transfer.onComplete = [&](const dtn::DtnTransfer::Result& r) {
    std::printf("\ntransfer complete: %s\n", r.file.c_str());
    std::printf("  bytes:    %s\n", sim::toString(r.bytes).c_str());
    std::printf("  elapsed:  %s\n", sim::toString(r.elapsed).c_str());
    std::printf("  rate:     %s (%.0f MB/s)\n", sim::toString(r.averageRate).c_str(),
                r.averageRate.toMBps());
    std::printf("  retransmits: %llu\n", static_cast<unsigned long long>(r.retransmits));
  };
  transfer.start();
  simulator.runFor(120_s);

  if (!transfer.finished()) {
    std::puts("transfer did not finish within 120 simulated seconds");
    return 1;
  }
  return 0;
}
