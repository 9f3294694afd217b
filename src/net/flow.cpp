#include "net/flow.hpp"

#include "net/host.hpp"
#include "net/link.hpp"

namespace scidmz::net {

const char* toString(FlowFidelity fidelity) {
  switch (fidelity) {
    case FlowFidelity::kPacket: return "packet";
    case FlowFidelity::kFluid: return "fluid";
  }
  return "packet";
}

std::optional<FlowFidelity> parseFlowFidelity(std::string_view text) {
  if (text == "packet") return FlowFidelity::kPacket;
  if (text == "fluid") return FlowFidelity::kFluid;
  return std::nullopt;
}

FlowPath traceFlowPath(Host& src, Host& dst) {
  FlowPath path;
  Device* device = &src;
  const Address dstAddr = dst.address();
  double survival = 1.0;
  // Bounded walk: a routing loop or dead end yields an incomplete path.
  for (int ttl = 0; ttl < 64; ++ttl) {
    if (device == &dst) {
      path.lossRate = 1.0 - survival;
      return path;
    }
    auto egress = device->lookupRoute(dstAddr);
    // Hosts are single-homed and transmit on interface 0 regardless of
    // routing tables (Host::send); mirror that here.
    if (!egress && device->interfaceCount() == 1) egress = 0;
    if (!egress) break;
    Interface& out = device->interface(static_cast<std::size_t>(*egress));
    Link* link = out.link();
    if (link == nullptr) break;
    const int end = out.linkEnd();
    path.hops.emplace_back(link, end);
    path.oneWayDelay += link->delay();
    if (path.bottleneck.bps() == 0 || link->rate() < path.bottleneck) {
      path.bottleneck = link->rate();
    }
    survival *= 1.0 - link->lossRate(end);
    device = &link->peer(end).owner();
  }
  return FlowPath{};
}

namespace {
std::optional<FlowFidelity>& processOverrideSlot() {
  static std::optional<FlowFidelity> slot;
  return slot;
}
}  // namespace

void setProcessFidelityOverride(std::optional<FlowFidelity> fidelity) {
  processOverrideSlot() = fidelity;
}

std::optional<FlowFidelity> processFidelityOverride() { return processOverrideSlot(); }

FlowFactory::FlowFactory() : override_(processFidelityOverride()) {}

}  // namespace scidmz::net
