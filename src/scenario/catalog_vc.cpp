// Catalog: Section 7 — virtual circuits and SDN.
//   vc_roce_circuit       — OSCARS admission + RoCE vs TCP on a 40G circuit
//   sdn_policy_comparison — always-firewall / ids-then-bypass / acl-only
#include <string>
#include <vector>

#include "scenario/bench_io.hpp"
#include "sim/units.hpp"
#include "scenario/harness.hpp"
#include "scenario/registry.hpp"
#include "vc/oscars.hpp"
#include "vc/roce.hpp"

namespace scidmz::scenario {
namespace {

using namespace scidmz::sim::literals;

// --- vc_roce_circuit -------------------------------------------------------

ScenarioSpec roceCell(double lossRate, std::size_t index) {
  ScenarioSpec s;
  s.name = "vc_roce_circuit#" + std::to_string(index);
  s.topology.kind = TopologyKind::kPath;
  auto& p = s.topology.path;
  p.link = LinkSpec{40000, 10000, 9000};
  if (lossRate > 0) {
    LossSpec l;
    l.rate = lossRate;
    l.rngFork = 6;
    p.losses.push_back(l);
  }
  WorkloadSpec w;
  w.kind = WorkloadKind::kRoce;
  w.rateGbps = 40;
  w.bytes = (10_GB).byteCount();
  w.timeoutS = 600.0;
  s.workloads.push_back(w);
  return s;
}

std::vector<ScenarioSpec> vcSpecs() {
  std::vector<ScenarioSpec> specs;
  ScenarioSpec tcpSpec;
  tcpSpec.name = "vc_roce_circuit#0";
  tcpSpec.topology.kind = TopologyKind::kPath;
  tcpSpec.topology.path.link = LinkSpec{40000, 10000, 9000};
  WorkloadSpec w;
  w.tcp.cc = CcAlgo::kHtcp;
  w.tcp.bufBytes = (512_MB).byteCount();
  w.warmupS = 3.0;
  w.windowS = 4.0;
  tcpSpec.workloads.push_back(w);
  specs.push_back(std::move(tcpSpec));
  specs.push_back(roceCell(0.0, 1));
  specs.push_back(roceCell(1e-4, 2));
  return specs;
}

/// OSCARS admission control demo: build the 40G core inline and ask for
/// the circuit twice. Pure control-plane arithmetic over the topology —
/// no simulated traffic — so it lives in the render.
void oscarsDemo() {
  Scenario s;
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& sw = s.topo.addSwitch("core");
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  net::LinkParams lp;
  lp.rate = 40_Gbps;
  s.topo.connect(a, sw, lp);
  s.topo.connect(sw, b, lp);
  s.topo.computeRoutes();
  vc::OscarsService oscars{s.topo};
  const auto start = sim::SimTime::zero();
  const auto id = oscars.reserve(a.address(), b.address(), 40_Gbps, start,
                                 start + sim::Duration::seconds(3600));
  bench::row("oscars: reserved 40G a->b for 1h: %s", id ? "granted" : "DENIED");
  const auto second = oscars.reserve(a.address(), b.address(), 1_Gbps, start,
                                     start + sim::Duration::seconds(3600));
  bench::row("oscars: a second 1G overlapping request: %s (admission control)",
             second ? "granted (bug)" : "denied, circuit is full");
}

void renderVc(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"transport"}, {"gbps", 1}, {"cpu_units", 3}, {"wasted_GB", 2}});

  const auto& tcp = outcomes[0];
  const auto tcpRate =
      sim::DataRate::bitsPerSecond(static_cast<std::uint64_t>(tcp.result.at("w0.bps")));
  table.addRow({"tcp (htcp) on circuit", tcpRate.toGbps(), vc::tcpCpuUnits(tcpRate.bytesIn(4_s)),
                "-"});
  for (std::size_t i = 1; i < 3; ++i) {
    const auto& o = outcomes[i];
    const auto goodput = sim::DataRate::bitsPerSecond(
        static_cast<std::uint64_t>(o.result.at("w0.goodput_bps")));
    const double wastedGB =
        sim::DataSize::bytes(static_cast<std::uint64_t>(o.result.at("w0.wasted_bytes"))).toGB();
    table.addRow({i == 1 ? "roce on loss-free circuit" : "roce without circuit (1e-4 loss)",
                  goodput.toGbps(), o.result.at("w0.cpu_units"), wastedGB});
  }
  table.addNote(bench::formatRow(
      "cpu per GB moved, tcp/roce: %.0fx (paper: ~50x less CPU); without the circuit,"
      " go-back-N wastes the pipe",
      vc::kTcpCpuUnitsPerGB / vc::kRoceCpuUnitsPerGB));
  table.write();
  oscarsDemo();
}

// --- sdn_policy_comparison -------------------------------------------------

std::vector<ScenarioSpec> sdnSpecs() {
  std::vector<ScenarioSpec> specs;
  for (int mode = 0; mode < 3; ++mode) {  // 0 = firewall, 1 = ids-bypass, 2 = acl-only
    ScenarioSpec s;
    s.name = "sdn_policy_comparison#" + std::to_string(specs.size());
    s.topology.kind = TopologyKind::kPath;
    auto& p = s.topology.path;
    p.src = HostSpec{"remote", "198.128.1.1"};
    p.dst = HostSpec{"dtn", "10.10.1.10"};
    p.link = LinkSpec{10000, 10000, 9000};
    if (mode == 2) {
      p.middlebox = Middlebox::kSwitch;
      p.midName = "dmz-switch";
    } else {
      // Sequence checking off: a bypass installed after the handshake
      // cannot restore window scaling the firewall already stripped from
      // the SYN, so we isolate the data-path (engine/buffer) cost here.
      p.middlebox = Middlebox::kFirewall;
      p.midName = "edge-fw";
      p.firewallSeqChecking = false;
      if (mode == 1) p.idsVettingPackets = 5;
    }
    WorkloadSpec w;
    w.tcp.cc = CcAlgo::kHtcp;
    w.tcp.bufBytes = (128_MB).byteCount();
    w.warmupS = 5.0;
    w.windowS = 15.0;
    s.workloads.push_back(w);
    specs.push_back(std::move(s));
  }
  return specs;
}

void renderSdn(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"policy"}, {"mbps"}, {"pkts_inspected"}, {"fw_drops"}});
  const char* names[] = {"always-firewall", "ids-then-bypass (sdn)", "acl-only (science dmz)"};
  for (std::size_t mode = 0; mode < 3; ++mode) {
    const auto& o = outcomes[mode];
    const double mbps =
        sim::DataRate::bitsPerSecond(static_cast<std::uint64_t>(o.result.at("w0.bps")))
            .toMbps();
    table.addRow({names[mode], bench::mbpsCell(mbps, o.result.at("w0.established") != 0.0),
                  static_cast<unsigned long long>(o.result.get("fw.inspected", 0.0)),
                  static_cast<unsigned long long>(o.result.get("fw.drops_input_buffer", 0.0))});
  }
  table.addNote("the SDN policy recovers (nearly) the ACL-only rate while still passing"
                " connection setup through the IDS — the paper's proposed middle ground");
  table.write();
}

}  // namespace

void registerVcScenarios(ScenarioRegistry& registry) {
  registry.add({"vc_roce_circuit", "vc", "RoCE vs TCP on a guaranteed 40G virtual circuit",
                "Section 7.1 (OSCARS + RoCE, Kissel et al. numbers), Dart et al. SC13",
                "transports", vcSpecs, renderVc, nullptr});
  registry.add({"sdn_policy_comparison", "vc", "security policy vs science-flow throughput",
                "Section 7.3 (OpenFlow IDS-then-bypass), Dart et al. SC13", "policies",
                sdnSpecs, renderSdn, nullptr});
}

}  // namespace scidmz::scenario
