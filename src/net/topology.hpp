// Topology: the container that owns devices and links, computes routing
// tables, and answers path queries (hop lists, bottleneck, loss budget) —
// the raw material the Science DMZ design-pattern library reasons over.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/context.hpp"
#include "net/device.hpp"
#include "net/firewall.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"

namespace scidmz::net {

/// One hop of a traced path: the link crossed and the device it leads to.
struct PathHop {
  Link* link = nullptr;
  Device* device = nullptr;  ///< Device at the far end of `link`.
};

/// A source-to-destination path through the topology.
struct PathTrace {
  Host* src = nullptr;
  Host* dst = nullptr;
  std::vector<PathHop> hops;  ///< First hop leaves src; last hop lands on dst.

  [[nodiscard]] bool complete() const { return dst != nullptr && !hops.empty(); }
  /// Lowest link rate along the path.
  [[nodiscard]] sim::DataRate bottleneckRate() const;
  /// Sum of propagation delays (one way).
  [[nodiscard]] sim::Duration propagationDelay() const;
  /// Devices traversed, excluding the source host.
  [[nodiscard]] std::vector<Device*> devices() const;
  [[nodiscard]] std::string toString() const;
};

/// Sharded construction plan: which Context (= domain) each named device is
/// built into, the lookahead floor that decides which links become boundary
/// channels, and the channel registry. Installed before any add*/connect.
struct ShardConfig {
  std::vector<Context*> domains;            ///< domain index -> per-domain Context
  std::map<std::string, int> deviceDomain;  ///< device name -> domain index
  sim::Duration lookaheadFloor = sim::Duration::milliseconds(1);
  sim::ShardedSimulator* sharded = nullptr;
};

class Topology {
 public:
  explicit Topology(Context& ctx) : ctx_(ctx) {}

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Arm sharded construction: subsequent factory calls build each device
  /// into its domain's Context, and connect() routes every link with
  /// delay >= the lookahead floor through boundary channels (at *every*
  /// domain count — see Link::routeThroughChannels). A cross-domain link below
  /// the floor is a partitioning bug and throws. Must be called on an
  /// empty topology.
  void configureShards(ShardConfig config);

  /// Factory helpers: the topology owns every device it creates.
  Host& addHost(std::string name, Address address);
  SwitchDevice& addSwitch(std::string name, SwitchProfile profile = SwitchProfile::scienceDmz());
  RouterDevice& addRouter(std::string name, SwitchProfile profile = SwitchProfile::scienceDmz());
  FirewallDevice& addFirewall(std::string name,
                              FirewallProfile profile = FirewallProfile::enterprise10G());

  /// Connect two devices with a new link, creating one interface on each
  /// side. Egress buffers default to each device's natural sizing: hosts
  /// get a large NIC ring, switches/routers their profile buffer.
  Link& connect(Device& a, Device& b, LinkParams params);
  Link& connect(Device& a, Device& b, LinkParams params, sim::DataSize bufferA,
                sim::DataSize bufferB);

  /// Recompute all forwarding tables via BFS over the device graph
  /// (host /32 routes on every device). Call after the topology is built
  /// and again after any structural change.
  void computeRoutes();

  /// Trace the routed path between two host addresses. Returns nullopt if
  /// either host is unknown or routing dead-ends.
  [[nodiscard]] std::optional<PathTrace> trace(Address src, Address dst) const;

  [[nodiscard]] Host* findHost(Address address) const;
  [[nodiscard]] Device* findDevice(std::string_view name) const;

  [[nodiscard]] const std::vector<std::unique_ptr<Device>>& devices() const { return devices_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& links() const { return links_; }
  [[nodiscard]] Context& ctx() { return ctx_; }

 private:
  [[nodiscard]] static sim::DataSize defaultBuffer(const Device& d);
  /// Build a T named `name` into its domain's Context (per the shard plan)
  /// and take ownership of it.
  template <typename T, typename... Args>
  T& emplaceDevice(std::string name, Args... args);
  /// Index of the shard domain whose Context `d` was built into.
  [[nodiscard]] int domainOf(Device& d) const;

  Context& ctx_;
  ShardConfig shard_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace scidmz::net
