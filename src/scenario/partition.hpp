// A shardable topology as data, and the partitioner that reads it. The
// engine builds net::Topology from a DeviceGraph and planShards() cuts the
// same graph, so the plan and the built topology cannot disagree. The cut
// contracts every link whose delay is below the lookahead floor, then deals
// the resulting atoms — LAN-connected device groups — into contiguous,
// device-count-balanced domains: WAN links are the only cut points, the
// Science DMZ shape of dense sites stitched by long-haul paths.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "net/firewall.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "sim/units.hpp"

namespace scidmz::scenario {

/// The devices and links of one topology, in the order they are built.
struct DeviceGraph {
  enum class Kind { kHost, kRouter, kSwitch, kFirewall };

  struct Node {
    Kind kind = Kind::kHost;
    std::string name;
    net::Address address;                  ///< hosts
    net::SwitchProfile switchProfile;      ///< routers and switches
    net::FirewallProfile firewallProfile;  ///< firewalls
  };

  struct Link {
    std::size_t a = 0;  ///< node index of the first endpoint
    std::size_t b = 0;
    net::LinkParams params;
  };

  /// Append a node with default profiles; returns its index.
  std::size_t add(Kind kind, std::string name, net::Address address = {}) {
    nodes.push_back(Node{kind, std::move(name), address, {}, {}});
    return nodes.size() - 1;
  }
  void connect(std::size_t a, std::size_t b, net::LinkParams params) {
    links.push_back(Link{a, b, params});
  }

  std::vector<Node> nodes;
  std::vector<Link> links;
};

/// The partitioner's output: how many domains were actually used (never
/// more than the number of atoms) and each device's assignment.
struct ShardPlan {
  int domains = 1;
  std::map<std::string, int> nodeDomain;
};

/// Partition `graph` into at most `requestedDomains` (>= 1) domains with
/// cuts only at links of delay >= `lookaheadFloor`. Atoms are numbered by
/// their first node in construction order and assigned to domains in that
/// order, blocked so device counts balance.
[[nodiscard]] ShardPlan planShards(const DeviceGraph& graph, int requestedDomains,
                                   sim::Duration lookaheadFloor);

}  // namespace scidmz::scenario
