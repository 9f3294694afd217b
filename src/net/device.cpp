#include "net/device.hpp"

#include <algorithm>
#include <string>

#include "net/link.hpp"
#include "net/trace.hpp"

namespace scidmz::net {

Interface::Interface(Context& ctx, Device& owner, int index, sim::DataSize egressBuffer)
    : ctx_(ctx),
      owner_(owner),
      index_(index),
      queue_(egressBuffer),
      tx_(ctx, *this, "net.tx") {}

void Interface::attachLink(Link& link, int end) {
  link_ = &link;
  end_ = end;
}

sim::DataRate Interface::rate() const {
  return link_ ? link_->rate() : sim::DataRate::zero();
}

void Interface::initTelemetry() {
  auto& tel = ctx_.telemetry();
  const std::string base = owner_.name() + "/if" + std::to_string(index_);
  tel_point_ = tel.recorder().internPoint(base);
  tel_drops_ = &tel.metrics().counter("queue/" + base + "/drops");
  tel_init_ = true;
  if (!tel_probes_) addProbes();
}

void Interface::addProbes() {
  auto& tel = ctx_.telemetry();
  const std::string base = owner_.name() + "/if" + std::to_string(index_);
  tel.addSampler("queue/" + base + "/depth_bytes",
                 [this] { return static_cast<double>(queue_.depth().byteCount()); });
  // Utilization over the last sampling interval: bits transmitted since the
  // previous tick divided by what the link could have carried. The
  // accumulator lives in Interface members (not lambda captures) so a
  // snapshot carries it and a restored run's next sample sees the same
  // baseline.
  tel.addSampler("link/" + base + "/utilization", [this]() {
    const std::int64_t nowNs = ctx_.now().ns();
    const std::uint64_t bytes = stats_.txBytes.byteCount();
    const auto dBytes = static_cast<double>(bytes - util_last_bytes_);
    const auto dNs = static_cast<double>(nowNs - util_last_ns_);
    util_last_bytes_ = bytes;
    util_last_ns_ = nowNs;
    const std::uint64_t bps = link_ != nullptr ? link_->rate().bps() : 0;
    if (dNs <= 0.0 || bps == 0) return 0.0;
    return dBytes * 8.0 * 1e9 / (dNs * static_cast<double>(bps));
  });
  tel_probes_ = true;
}

void Interface::send(PacketRef packet) {
  if (link_ == nullptr) {
    ++owner_.stats().dropsOther;
    return;
  }
  auto& tel = ctx_.telemetry();
  const bool traced = tel.enabled();
  telemetry::FlightEvent ev;
  if (traced) {
    if (!tel_init_) initTelemetry();
    ev = makeFlightEvent(ctx_.now(), *packet);
    ev.point = tel_point_;
  }
  const bool accepted = queue_.tryEnqueue(ctx_.now(), std::move(packet));
  if (traced) {
    ev.kind = accepted ? telemetry::FlightEventKind::kEnqueue : telemetry::FlightEventKind::kDrop;
    ev.aux2 = queue_.depth().byteCount();
    if (!accepted) ++*tel_drops_;
    tel.recorder().record(ev);
  }
  if (!accepted) return;  // drop counted by queue (and telemetry when enabled)
  if (tx_.empty()) startNextTransmission();
}

void Interface::startNextTransmission() {
  auto next = queue_.dequeue(ctx_.now());
  if (!next) return;
  auto& tel = ctx_.telemetry();
  if (tel.enabled()) {
    if (!tel_init_) initTelemetry();
    recordPacket(tel.recorder(), ctx_.now(), *next,
                 telemetry::FlightEventKind::kDequeue, tel_point_, queue_.depth().byteCount());
  }
  // Serialization runs at the residual rate after fluid-flow demand; with
  // no fluid load this is exactly the configured link rate.
  const auto txTime = link_->effectiveRate(end_).transmissionTime(next->wireSize());
  ++stats_.txPackets;
  stats_.txBytes += next->wireSize();
  tx_.push(ctx_.now() + txTime, std::move(next));
}

void Interface::completeTransmission(PacketRef packet) {
  link_->transmitComplete(end_, std::move(packet));
  startNextTransmission();
}

std::uint64_t Interface::serialize(sim::Codec& c) {
  c.vu64(stats_.txPackets);
  sim::codecSize(c, stats_.txBytes);
  c.vu64(util_last_bytes_);
  c.vi64(util_last_ns_);
  queue_.serialize(c, ctx_.pool());
  // Probes the snapshotting run registered sample from the next tick, not
  // from this port's next packet; the emit point still interns lazily,
  // against the restored point table.
  bool probes = tel_probes_;
  c.b(probes);
  if (probes && !tel_probes_) addProbes();
  const std::uint64_t claimed = tx_.serialize(c);
  if (tx_.size() > 1) c.reader().markFailed();  // a port serializes one packet at a time
  return claimed;
}

Device::Device(Context& ctx, std::string name) : ctx_(ctx), name_(std::move(name)) {}

Interface& Device::addInterface(sim::DataSize egressBuffer) {
  interfaces_.push_back(std::make_unique<Interface>(
      ctx_, *this, static_cast<int>(interfaces_.size()), egressBuffer));
  return *interfaces_.back();
}

void Device::addRoute(Prefix prefix, int ifIndex) {
  // After every route at least as long: descending length, and among equal
  // lengths the first inserted stays first.
  const auto at = std::upper_bound(routes_.begin(), routes_.end(), prefix.length(),
                                   [](int length, const RouteEntry& e) {
                                     return length > e.prefix.length();
                                   });
  routes_.insert(at, RouteEntry{prefix, ifIndex});
  fib_compiled_ = false;
  ++route_generation_;
}

void Device::clearRoutes() {
  routes_.clear();
  fib_compiled_ = false;
  ++route_generation_;
}

void Device::compileFib() const {
  fib_exact_.clear();
  fib_prefixes_.clear();
  for (const auto& entry : routes_) {
    if (entry.prefix.length() == 32) {
      // emplace keeps the first-inserted route for a duplicate /32 — the
      // same winner the ordered linear scan would pick.
      fib_exact_.emplace(entry.prefix.base().value(), entry.ifIndex);
    } else {
      fib_prefixes_.push_back(entry);  // already in descending-length order
    }
  }
  fib_compiled_ = true;
}

std::optional<int> Device::lookupRoute(Address dst) const {
  if (!fib_compiled_) compileFib();
  const std::uint32_t a = dst.value();
  FlowCacheSlot& slot = flow_cache_[(a * 0x9E3779B9u) >> 24];
  if (slot.generation == route_generation_ && slot.dst == a) {
    if (slot.ifIndex < 0) return std::nullopt;
    return slot.ifIndex;
  }
  int result = -1;
  if (const auto it = fib_exact_.find(a); it != fib_exact_.end()) {
    result = it->second;
  } else {
    for (const auto& entry : fib_prefixes_) {
      if (entry.prefix.contains(dst)) {
        result = entry.ifIndex;
        break;
      }
    }
  }
  slot = FlowCacheSlot{a, route_generation_, result};
  if (result < 0) return std::nullopt;
  return result;
}

void Device::forward(PacketRef packet) {
  if (packet->ttl == 0) {
    ++stats_.dropsTtl;
    auto& tel = ctx_.telemetry();
    if (tel.enabled()) {
      ++tel.metrics().counter("device/" + name() + "/drops_ttl_expired");
      recordPacket(tel.recorder(), ctx_.now(), *packet,
                   telemetry::FlightEventKind::kDrop,
                   tel.recorder().internPoint(name() + "/ttl_expired"));
    }
    return;
  }
  packet->ttl--;
  const auto egress = lookupRoute(packet->flow.dst);
  if (!egress) {
    ++stats_.dropsNoRoute;
    auto& tel = ctx_.telemetry();
    if (tel.enabled()) {
      ++tel.metrics().counter("device/" + name() + "/drops_no_route");
      recordPacket(tel.recorder(), ctx_.now(), *packet,
                   telemetry::FlightEventKind::kDrop,
                   tel.recorder().internPoint(name() + "/no_route"));
    }
    return;
  }
  ctx_.countForwarded();
  interface(static_cast<std::size_t>(*egress)).send(std::move(packet));
}

std::uint64_t Device::serialize(sim::Codec& c) {
  stats_.serialize(c);
  // Interface count is structural: a mismatch means the rebuilt scenario
  // differs from the one snapshotted, so the blob is refused.
  std::uint64_t n = interfaces_.size();
  c.vu64(n);
  if (!c.writing() && n != interfaces_.size()) {
    c.reader().markFailed();
    return 0;
  }
  std::uint64_t claimed = 0;
  for (auto& iface : interfaces_) claimed += iface->serialize(c);
  return claimed;
}

}  // namespace scidmz::net
