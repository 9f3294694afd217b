// Section 7.3 demo: software-defined security policy. New connections pass
// through the enterprise firewall and are mirrored to an IDS; once the IDS
// vets the connection-setup traffic, the OpenFlow controller installs a
// bypass and the bulk of the flow skips the firewall's inspection engines.
// A watch-listed source never gets that far: it is blocked outright.
//
//   ./examples/sdn_firewall_bypass
#include <cstdio>

#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/connection.hpp"
#include "vc/openflow.hpp"

using namespace scidmz;
using namespace scidmz::sim::literals;

int main() {
  sim::Simulator simulator;
  sim::Rng rng{23};
  net::Context ctx{simulator, rng};
  net::Topology topo{ctx};

  // trusted-site --10G-- firewall --10G-- dtn   (+ IDS tap + controller)
  auto& trusted = topo.addHost("trusted-site", net::Address(198, 128, 2, 1));
  auto& attacker = topo.addHost("watchlisted", net::Address(203, 0, 113, 66));
  auto& fw = topo.addFirewall("fw", net::FirewallProfile::enterprise10G());
  auto& dtn = topo.addHost("dtn", net::Address(10, 10, 1, 10));
  net::LinkParams lp;
  lp.rate = 10_Gbps;
  lp.delay = 2_ms;
  lp.mtu = 9000_B;
  topo.connect(trusted, fw, lp);
  topo.connect(attacker, fw, lp);
  topo.connect(fw, dtn, lp);
  topo.computeRoutes();

  net::IntrusionDetectionSystem ids;
  ids.setVettingPacketCount(5);
  ids.addWatchlistPrefix(net::Prefix::parse("203.0.113.0/24"));
  vc::BypassController controller{fw, ids};
  controller.onBypassInstalled = [&](const net::FlowKey& flow) {
    std::printf("[%6.3fs] controller: bypass installed for %s\n",
                simulator.now().toSeconds(), flow.toString().c_str());
  };

  // The trusted site pushes 200 MB to the DTN.
  tcp::TcpConfig cfg;
  cfg.algorithm = tcp::CcAlgorithm::kHtcp;  // DTN-style high-BDP recovery
  cfg.sndBuf = 64_MB;
  cfg.rcvBuf = 64_MB;
  tcp::TcpListener listener{dtn, 2811, cfg};
  tcp::TcpConnection good{trusted, dtn.address(), 2811, cfg};
  good.onEstablished = [&good] { good.sendData(200_MB); };
  bool done = false;
  good.onSendComplete = [&] {
    done = true;
    std::printf("[%6.3fs] trusted transfer complete at %s\n", simulator.now().toSeconds(),
                sim::toString(good.goodput()).c_str());
  };
  good.start();

  // The watch-listed host tries to connect too.
  tcp::TcpConnection bad{attacker, dtn.address(), 2811, cfg};
  bool badEstablished = false;
  bad.onEstablished = [&badEstablished] { badEstablished = true; };
  bad.start();

  simulator.runFor(120_s);

  const auto& stats = fw.firewallStats();
  std::printf("\nfirewall: inspected=%llu policy-drops=%llu\n",
              static_cast<unsigned long long>(stats.inspected),
              static_cast<unsigned long long>(stats.dropsPolicy));
  std::printf("controller: bypasses=%llu blocks=%llu flow-table rules=%zu\n",
              static_cast<unsigned long long>(controller.bypassesInstalled()),
              static_cast<unsigned long long>(controller.dropsInstalled()),
              controller.table().ruleCount());
  std::printf("watchlisted host connected: %s\n", badEstablished ? "YES (bug!)" : "no");

  // Success: transfer done, inspection engines barely touched, attacker out.
  const bool ok = done && !badEstablished && stats.inspected < 100;
  std::puts(ok ? "\nresult: bulk data bypassed the firewall after vetting; attacker blocked"
               : "\nresult: FAILED");
  return ok ? 0 : 1;
}
