#include "scenario/partition.hpp"

#include <algorithm>
#include <numeric>

namespace scidmz::scenario {

ShardPlan planShards(const DeviceGraph& graph, int requestedDomains,
                     sim::Duration lookaheadFloor) {
  const std::vector<DeviceGraph::Node>& nodes = graph.nodes;

  // Union-find; contract every sub-floor link.
  std::vector<std::size_t> parent(nodes.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const DeviceGraph::Link& link : graph.links) {
    if (link.params.delay >= lookaheadFloor) continue;
    const std::size_t ra = find(link.a);
    const std::size_t rb = find(link.b);
    // Union toward the lower root so atom identity follows node order.
    parent[std::max(ra, rb)] = std::min(ra, rb);
  }

  // Atoms in node order, with their devices.
  std::vector<int> atomOf(nodes.size(), -1);
  std::vector<std::vector<std::size_t>> atoms;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    int& atom = atomOf[find(i)];
    if (atom < 0) {
      atom = static_cast<int>(atoms.size());
      atoms.emplace_back();
    }
    atoms[static_cast<std::size_t>(atom)].push_back(i);
  }

  ShardPlan out;
  const int effective =
      std::clamp(requestedDomains, 1, std::max(1, static_cast<int>(atoms.size())));
  out.domains = effective;

  // Contiguous blocking balanced by device count: domain d ends once the
  // running total crosses (d+1)/effective of all devices.
  const std::size_t total = nodes.size();
  int domain = 0;
  std::size_t assigned = 0;
  for (const auto& atom : atoms) {
    for (const std::size_t node : atom) out.nodeDomain[nodes[node].name] = domain;
    assigned += atom.size();
    while (domain + 1 < effective &&
           assigned * static_cast<std::size_t>(effective) >=
               (static_cast<std::size_t>(domain) + 1) * total) {
      ++domain;
    }
  }
  return out;
}

}  // namespace scidmz::scenario
