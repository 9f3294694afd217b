#include "net/topology.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "sim/domain.hpp"

namespace scidmz::net {

sim::DataRate PathTrace::bottleneckRate() const {
  sim::DataRate best = sim::DataRate::bitsPerSecond(std::numeric_limits<std::uint64_t>::max());
  for (const auto& hop : hops) {
    if (hop.link->rate() < best) best = hop.link->rate();
  }
  return hops.empty() ? sim::DataRate::zero() : best;
}

sim::Duration PathTrace::propagationDelay() const {
  sim::Duration total = sim::Duration::zero();
  for (const auto& hop : hops) total += hop.link->delay();
  return total;
}

std::vector<Device*> PathTrace::devices() const {
  std::vector<Device*> out;
  out.reserve(hops.size());
  for (const auto& hop : hops) out.push_back(hop.device);
  return out;
}

std::string PathTrace::toString() const {
  std::string s = src ? src->name() : "?";
  for (const auto& hop : hops) {
    s += " -> ";
    s += hop.device->name();
  }
  return s;
}

void Topology::configureShards(ShardConfig config) {
  if (!devices_.empty() || !links_.empty()) {
    throw std::runtime_error("configureShards: topology already has devices");
  }
  if (config.sharded == nullptr || config.domains.empty()) {
    throw std::runtime_error("configureShards: missing sharded simulator or domains");
  }
  for (const auto& [name, domain] : config.deviceDomain) {
    if (domain < 0 || domain >= static_cast<int>(config.domains.size())) {
      throw std::runtime_error("configureShards: domain out of range for " + name);
    }
  }
  shard_ = std::move(config);
}

template <typename T, typename... Args>
T& Topology::emplaceDevice(std::string name, Args... args) {
  Context* ctx = &ctx_;
  if (shard_.sharded != nullptr) {
    const auto it = shard_.deviceDomain.find(name);
    if (it == shard_.deviceDomain.end()) {
      throw std::runtime_error("sharded topology: device missing from domain map: " + name);
    }
    ctx = shard_.domains[static_cast<std::size_t>(it->second)];
  }
  devices_.push_back(std::make_unique<T>(*ctx, std::move(name), args...));
  return static_cast<T&>(*devices_.back());
}

int Topology::domainOf(Device& d) const {
  const auto it = std::find(shard_.domains.begin(), shard_.domains.end(), &d.ctx());
  return static_cast<int>(it - shard_.domains.begin());
}

Host& Topology::addHost(std::string name, Address address) {
  return emplaceDevice<Host>(std::move(name), address);
}

SwitchDevice& Topology::addSwitch(std::string name, SwitchProfile profile) {
  return emplaceDevice<SwitchDevice>(std::move(name), profile);
}

RouterDevice& Topology::addRouter(std::string name, SwitchProfile profile) {
  return emplaceDevice<RouterDevice>(std::move(name), profile);
}

FirewallDevice& Topology::addFirewall(std::string name, FirewallProfile profile) {
  return emplaceDevice<FirewallDevice>(std::move(name), profile);
}

sim::DataSize Topology::defaultBuffer(const Device& d) {
  if (const auto* fw = dynamic_cast<const FirewallDevice*>(&d)) return fw->profile().egressBuffer;
  if (const auto* sw = dynamic_cast<const SwitchDevice*>(&d)) return sw->profile().egressBuffer;
  // Hosts: NIC ring + qdisc modeled as a deep local queue. A sender's own
  // window dumps serialize here and self-clock via ACKs (the kernel would
  // backpressure the socket); host-side loss belongs to the TCP layer's
  // socket-buffer caps, not the NIC.
  return sim::DataSize::gigabytes(1);
}

Link& Topology::connect(Device& a, Device& b, LinkParams params) {
  return connect(a, b, params, defaultBuffer(a), defaultBuffer(b));
}

Link& Topology::connect(Device& a, Device& b, LinkParams params, sim::DataSize bufferA,
                        sim::DataSize bufferB) {
  auto& ifA = a.addInterface(bufferA);
  auto& ifB = b.addInterface(bufferB);
  links_.push_back(std::make_unique<Link>(params, ifA, ifB));
  Link& link = *links_.back();
  if (shard_.sharded != nullptr) {
    const int da = domainOf(a);
    const int db = domainOf(b);
    if (params.delay >= shard_.lookaheadFloor) {
      // Cut-eligible: channel-route both directions regardless of whether
      // the partition separated the ends (partition invariance — the
      // channel ids and delivery keys depend only on construction order).
      link.routeThroughChannels(*shard_.sharded, da, db);
    } else if (da != db) {
      throw std::runtime_error("sharded topology: cross-domain link below the lookahead floor: " +
                               a.name() + " -> " + b.name());
    }
  }
  return link;
}

void Topology::computeRoutes() {
  // Dense device indices: the topology's own devices first, in order, then
  // any link endpoint it does not own.
  std::unordered_map<Device*, std::size_t> index;
  auto indexOf = [&index](Device* dev) {
    return index.try_emplace(dev, index.size()).first->second;
  };
  for (const auto& devPtr : devices_) indexOf(devPtr.get());
  // Adjacency: device -> (neighbor, local egress interface index).
  std::vector<std::vector<std::pair<std::size_t, int>>> adj;
  for (const auto& link : links_) {
    Interface& a = link->end(0);
    Interface& b = link->end(1);
    const std::size_t ia = indexOf(&a.owner());
    const std::size_t ib = indexOf(&b.owner());
    adj.resize(index.size());
    adj[ia].emplace_back(ib, a.index());
    adj[ib].emplace_back(ia, b.index());
  }
  adj.resize(index.size());

  for (const auto& devPtr : devices_) devPtr->clearRoutes();

  // BFS from each host; every device on a shortest path toward the host
  // gets a /32 route via the interface that BFS arrived through.
  constexpr int kUnreached = -1;
  std::vector<int> dist(index.size());
  std::vector<std::size_t> frontier;
  frontier.reserve(index.size());
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    auto* dest = dynamic_cast<Host*>(devices_[d].get());
    if (dest == nullptr) continue;
    const Prefix hostPrefix{dest->address(), 32};

    std::fill(dist.begin(), dist.end(), kUnreached);
    dist[d] = 0;
    frontier.assign(1, d);
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const std::size_t cur = frontier[head];
      for (const auto& [nbr, nbrIf] : adj[cur]) {
        (void)nbrIf;
        if (dist[nbr] != kUnreached) continue;
        dist[nbr] = dist[cur] + 1;
        frontier.push_back(nbr);
      }
    }
    for (std::size_t v = 0; v < devices_.size(); ++v) {
      if (v == d || dist[v] == kUnreached) continue;
      // Pick the neighbor one step closer to the destination; ties break by
      // adjacency order, which is insertion (= link creation) order, so
      // routing is deterministic.
      for (const auto& [nbr, localIf] : adj[v]) {
        if (dist[nbr] == dist[v] - 1) {
          devices_[v]->addRoute(hostPrefix, localIf);
          break;
        }
      }
    }
  }

  // Compile every device's FIB now so the route-churn cost is paid here,
  // at (re)configuration time, and the first forwarded packet after a
  // recompute doesn't eat the compile.
  for (const auto& devPtr : devices_) devPtr->finalizeRoutes();
}

Host* Topology::findHost(Address address) const {
  for (const auto& devPtr : devices_) {
    if (auto* host = dynamic_cast<Host*>(devPtr.get()); host && host->address() == address) {
      return host;
    }
  }
  return nullptr;
}

Device* Topology::findDevice(std::string_view name) const {
  for (const auto& devPtr : devices_) {
    if (devPtr->name() == name) return devPtr.get();
  }
  return nullptr;
}

std::optional<PathTrace> Topology::trace(Address src, Address dst) const {
  Host* from = findHost(src);
  Host* to = findHost(dst);
  if (from == nullptr || to == nullptr) return std::nullopt;

  PathTrace path;
  path.src = from;
  Device* cur = from;
  for (std::size_t guard = 0; guard < devices_.size() + 1; ++guard) {
    if (cur == to) {
      path.dst = to;
      return path;
    }
    const auto egress = cur->lookupRoute(dst);
    if (!egress) return std::nullopt;
    Interface& out = cur->interface(static_cast<std::size_t>(*egress));
    if (!out.attached()) return std::nullopt;
    Link* link = out.link();
    Device* next = &link->peer(out.linkEnd()).owner();
    path.hops.push_back(PathHop{link, next});
    cur = next;
  }
  return std::nullopt;  // routing loop
}

}  // namespace scidmz::net
