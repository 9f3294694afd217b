// Catalog: hybrid-fidelity validation.
//   hybrid_fidelity_background — one per-packet science flow against a
//   growing crowd of fluid (analytic) background flows over a shared
//   fan-in bottleneck. The experiment the unified Flow API exists for:
//   packet and fluid flows must contend for the SAME link capacity, so the
//   packet flow's goodput should fall roughly as 1/(1+N) while the fluid
//   aggregate absorbs the rest — without simulating a single background
//   packet.
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/bench_io.hpp"
#include "sim/units.hpp"
#include "scenario/registry.hpp"

namespace scidmz::scenario {
namespace {

using namespace scidmz::sim::literals;

// --- hybrid_fidelity_background --------------------------------------------

const std::vector<int>& hybridFluidCounts() {
  static const std::vector<int> counts{0, 8, 64, 512};
  return counts;
}

std::vector<ScenarioSpec> hybridSpecs() {
  std::vector<ScenarioSpec> specs;
  for (const int fluidFlows : hybridFluidCounts()) {
    ScenarioSpec s;
    s.name = "hybrid_fidelity_background#" + std::to_string(specs.size());
    s.topology.kind = TopologyKind::kFanin;
    auto& f = s.topology.fanin;
    f.senders = fluidFlows + 1;  // the last sender is the packet science flow
    f.egressBufferBytes = sim::DataSize::mebibytes(32).byteCount();
    f.egressLink = LinkSpec{10000, 5000, 9000};
    f.senderLink = LinkSpec{10000, 20, 9000};
    WorkloadSpec w;
    w.kind = WorkloadKind::kConvergingFlows;
    w.tcp.cc = CcAlgo::kHtcp;
    w.tcp.bufBytes = (64_MB).byteCount();
    w.port = 6000;
    w.warmupS = 3.0;
    w.windowS = 6.0;
    w.fluidFlows = fluidFlows;  // first N senders analytic, the rest packet
    s.workloads.push_back(w);
    specs.push_back(std::move(s));
  }
  return specs;
}

void renderHybrid(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"fluid_flows"},
                      {"packet_mbps", 1},
                      {"fluid_agg_mbps", 1},
                      {"total_mbps", 1},
                      {"fluid_share_pct", 1}});
  for (std::size_t i = 0; i < hybridFluidCounts().size(); ++i) {
    const int fluidFlows = hybridFluidCounts()[i];
    const auto& o = outcomes[i];
    const double totalBits = o.result.at("w0.delta_bits");
    const double packetBits =
        fluidFlows > 0 ? o.result.at("w0.packet_bits") : totalBits;
    const double fluidBits = fluidFlows > 0 ? o.result.at("w0.fluid_bits") : 0.0;
    table.addRow({fluidFlows, packetBits / 6.0 / 1e6, fluidBits / 6.0 / 1e6,
                  totalBits / 6.0 / 1e6,
                  totalBits > 0 ? fluidBits / totalBits * 100.0 : 0.0});
  }
  table.addNote("the packet flow's share shrinks as analytic background joins the"
                " bottleneck: fluid demand is subtracted from the link capacity packet"
                " serialization sees, so no background packet is ever simulated");
  table.write();
}

}  // namespace

void registerHybridScenarios(ScenarioRegistry& registry) {
  registry.add({"hybrid_fidelity_background", "ablation",
                "per-packet science flow vs fluid background crowd",
                "DESIGN.md hybrid-fidelity engine; Eq. 1 response function, Dart et al. SC13",
                "hybrid_grid", hybridSpecs, renderHybrid, nullptr});
}

}  // namespace scidmz::scenario
