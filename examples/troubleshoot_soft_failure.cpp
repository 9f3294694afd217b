// Soft-failure troubleshooting (Sections 2 and 3.3): a line card on the
// WAN path starts dropping 1 in 22,000 packets — invisible to interface
// error counters, devastating to TCP. The perfSONAR mesh alerts, segment
// testing localizes the bad link, the card is replaced, and the dashboard
// goes green again.
//
//   ./examples/troubleshoot_soft_failure
#include <cstdio>
#include <memory>

#include "core/site_builder.hpp"
#include "perfsonar/alerts.hpp"
#include "perfsonar/dashboard.hpp"
#include "perfsonar/mesh.hpp"
#include "perfsonar/owamp.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace scidmz;
using namespace scidmz::sim::literals;

int main() {
  sim::Simulator simulator;
  sim::Rng rng{17};
  net::Context ctx{simulator, rng};
  net::Topology topo{ctx};

  core::SiteConfig config;
  config.firewall.tcpSequenceChecking = false;
  auto site = core::buildSimpleScienceDmz(topo, config);

  // Continuous measurement between the site's perfSONAR host and the
  // collaborator's, in both directions.
  perfsonar::MeasurementArchive archive;
  perfsonar::MeshRunner::Options meshOptions;
  meshOptions.lossReportInterval = 5_s;
  meshOptions.throughputTestGap = 2_s;
  meshOptions.throughputTestDuration = 5_s;
  meshOptions.owamp.interval = 5_ms;
  perfsonar::MeshRunner mesh{
      ctx,
      {{"site", site->perfsonarHost}, {"collab", site->remotePerfsonarHost}},
      archive,
      meshOptions};
  perfsonar::SoftFailureDetector detector{archive};
  detector.onAlert = [&](const perfsonar::Alert& alert) {
    std::printf("[%7.2fs] ALERT %s->%s %s: %s\n", simulator.now().toSeconds(),
                alert.src.c_str(), alert.dst.c_str(), alert.metric.c_str(),
                alert.message.c_str());
  };
  mesh.start();

  // Periodic detector evaluation, like a cron job on the measurement host.
  std::function<void()> evaluate = [&] {
    detector.evaluate(simulator.now());
    simulator.schedule(5_s, evaluate);
  };
  simulator.schedule(5_s, evaluate);

  std::puts("phase 1: healthy baseline (60s)");
  simulator.runFor(60_s);

  std::puts("phase 2: line card on the WAN span begins dropping 1/22000 packets");
  site->wanLink->setLossModel(0, std::make_unique<net::PeriodicLoss>(22000));
  site->wanLink->setLossModel(1, std::make_unique<net::PeriodicLoss>(22000));
  simulator.runFor(120_s);

  perfsonar::Dashboard dashboard{archive, mesh.siteNames(), config.wan.rate.toMbps() * 0.9};
  std::puts("\ndashboard during the failure:");
  std::fputs(dashboard.render().c_str(), stdout);

  // Localize: one-way segment tests against the border (in practice, the
  // engineer owamps each segment; here the WAN span is the only suspect
  // between the two measurement hosts showing loss in both directions).
  const bool collabToSite = detector.hasActiveAlert("collab", "site");
  const bool siteToCollab = detector.hasActiveAlert("site", "collab");
  std::printf("\nlocalization: loss seen collab->site=%s site->collab=%s -> shared WAN span\n",
              collabToSite ? "yes" : "no", siteToCollab ? "yes" : "no");

  std::puts("phase 3: line card replaced; verifying");
  site->wanLink->repair();
  detector.clearPair("site", "collab");
  detector.clearPair("collab", "site");
  simulator.runFor(90_s);

  std::puts("\ndashboard after the repair:");
  std::fputs(dashboard.render().c_str(), stdout);

  const int bad = dashboard.countAtRating(perfsonar::CellRating::kBad) +
                  dashboard.countAtRating(perfsonar::CellRating::kDegraded);
  std::printf("\ndegraded cells after repair: %d, alerts raised during incident: %zu\n", bad,
              detector.alerts().size());
  mesh.stop();
  return (bad == 0 && !detector.alerts().empty()) ? 0 : 1;
}
