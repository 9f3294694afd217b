// Supercomputer-center example (Figure 4): WAN data arrives through the
// DTN pool and lands directly on the shared parallel filesystem, where the
// compute side can read it immediately — no second copy through login
// nodes. Several files stream in concurrently; the catalog is polled the
// way a workflow manager would.
//
//   ./examples/supercomputer_center
#include <cstdio>
#include <memory>
#include <vector>

#include "core/site_builder.hpp"
#include "dtn/dtn_cluster.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace scidmz;
using namespace scidmz::sim::literals;

int main() {
  sim::Simulator simulator;
  sim::Rng rng{7};
  net::Context ctx{simulator, rng};
  net::Topology topo{ctx};

  core::SiteConfig config;
  config.wan.rate = 10_Gbps;
  config.wan.delay = 25_ms;  // cross-country
  config.dtnCount = 4;
  config.computeNodeCount = 4;
  auto center = core::buildSupercomputerCenter(topo, config);

  // Ship a campaign of restart files from the experiment's remote site
  // into the center, spread across the DTN pool.
  dtn::DtnCluster remote{"experiment"};
  remote.addNode(*center->remoteDtn);
  dtn::DtnCluster local{"center"};
  for (auto* node : center->dtns) local.addNode(*node);

  dtn::TransferCampaign campaign{remote, local};
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) {
    names.push_back("shot-" + std::to_string(1000 + i) + ".h5");
    campaign.enqueue({names.back(), 800_MB});
  }
  campaign.onComplete = [&](const dtn::TransferCampaign::Report& r) {
    std::printf("campaign done: %zu files, %s in %s (%s aggregate)\n", r.filesDone,
                sim::toString(r.bytesMoved).c_str(), sim::toString(r.elapsed).c_str(),
                sim::toString(r.aggregateRate()).c_str());
  };
  campaign.start();

  // A workflow manager on the compute side polls the catalog and "starts
  // analysis" the moment each file is visible — without any copy step.
  std::size_t seen = 0;
  std::vector<std::string> started;
  std::function<void()> poll = [&] {
    for (const auto& name : names) {
      if (!center->parallelFs->available(name, simulator.now())) continue;
      bool isNew = true;
      for (const auto& s : started) {
        if (s == name) {
          isNew = false;
          break;
        }
      }
      if (isNew) {
        started.push_back(name);
        ++seen;
        std::printf("[%7.2fs] compute: %s visible on /scratch, starting analysis\n",
                    simulator.now().toSeconds(), name.c_str());
      }
    }
    if (seen < names.size()) simulator.schedule(500_ms, poll);
  };
  simulator.schedule(500_ms, poll);

  simulator.runFor(600_s);

  std::printf("\nfiles visible to compute: %zu / %zu\n", seen, names.size());
  std::printf("shared filesystem catalog entries: %zu\n", center->parallelFs->fileCount());
  return seen == names.size() ? 0 : 1;
}
