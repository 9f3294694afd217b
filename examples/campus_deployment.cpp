// Campus deployment walkthrough: assess a general-purpose campus network,
// measure a science transfer over it, then deploy a Science DMZ and show
// the before/after — the CC-NIE upgrade story in miniature.
//
//   ./examples/campus_deployment
#include <cstdio>

#include "apps/background_traffic.hpp"
#include "core/report.hpp"
#include "core/site_builder.hpp"
#include "dtn/dtn_node.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace scidmz;
using namespace scidmz::sim::literals;

namespace {

struct Measurement {
  double mbps = 0.0;
  sim::Duration elapsed = sim::Duration::zero();
};

/// Run one science transfer on a freshly built site while business traffic
/// churns on the enterprise network.
Measurement measureSite(bool withDmz, sim::DataSize bytes) {
  sim::Simulator simulator;
  sim::Rng rng{99};
  net::Context ctx{simulator, rng};
  net::Topology topo{ctx};

  core::SiteConfig config;
  if (!withDmz) {
    config.dtnProfile = dtn::DtnProfile::untunedGeneralPurpose();
    config.remoteProfile = dtn::DtnProfile::untunedGeneralPurpose();
  }
  auto site = withDmz ? core::buildSimpleScienceDmz(topo, config)
                      : core::buildGeneralPurposeCampus(topo, config);

  // Print the design review for this stage.
  const auto findings = core::validate(*site);
  std::fputs(core::renderSiteReport(*site, findings).c_str(), stdout);

  // Enterprise background load: web/mail-style flows among office hosts.
  apps::BackgroundProfile bg;
  bg.flowsPerSecond = 40;
  apps::BackgroundTraffic business{ctx, site->enterpriseHosts, site->enterpriseHosts, 20000, bg,
                                   rng.fork(5)};
  business.start();

  Measurement m;
  dtn::DtnTransfer transfer{*site->remoteDtn, *site->primaryDtn(), "dataset.h5", bytes, 50000};
  transfer.onComplete = [&](const dtn::DtnTransfer::Result& r) {
    m.mbps = r.averageRate.toMbps();
    m.elapsed = r.elapsed;
  };
  transfer.start();
  simulator.runFor(3600_s);
  business.stop();
  return m;
}

}  // namespace

int main() {
  std::puts("== stage 1: the campus as it stands =================================");
  const auto before = measureSite(/*withDmz=*/false, 100_MB);
  std::printf("\nscience transfer (100 MB): %.1f Mbps, %s\n\n", before.mbps,
              sim::toString(before.elapsed).c_str());

  std::puts("== stage 2: after the Science DMZ deployment ========================");
  const auto after = measureSite(/*withDmz=*/true, 2_GB);
  std::printf("\nscience transfer (2 GB): %.1f Mbps, %s\n\n", after.mbps,
              sim::toString(after.elapsed).c_str());

  std::printf("improvement: %.0fx\n", after.mbps / before.mbps);
  return after.mbps > before.mbps ? 0 : 1;
}
