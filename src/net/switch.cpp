#include "net/switch.hpp"

#include "net/trace.hpp"

namespace scidmz::net {

void SwitchDevice::receive(PacketRef packet, Interface& in) {
  notifyTap(*packet, in);
  ++stats_.rxPackets;
  stats_.rxBytes += packet->wireSize();

  if (acl_ && !acl_->permits(*packet)) {
    ++stats_.dropsAcl;
    auto& tel = ctx_.telemetry();
    if (tel.enabled()) {
      ++tel.metrics().counter("switch/" + name() + "/drops_acl");
      recordPacket(tel.recorder(), ctx_.now(), *packet,
                   telemetry::FlightEventKind::kDrop, tel.recorder().internPoint(name() + "/acl"));
    }
    return;
  }

  trackLoad(*packet);

  // While latched into the defective store-and-forward state, usable egress
  // buffering collapses. Model: clamp every egress queue's capacity; restore
  // when the fix is applied (applyVendorFix re-expands on next packet). The
  // target only moves when the defect latches or the fix lands, so the
  // queues are walked only when it (or the port count) differs from the
  // last clamp.
  const auto targetCapacity =
      inDefectiveState() ? defect_.defectiveBuffer : profile_.egressBuffer;
  if (clamp_applied_ != targetCapacity || clamp_ports_ != interfaceCount()) {
    for (std::size_t i = 0; i < interfaceCount(); ++i) {
      interface(i).queue().setCapacity(targetCapacity);
    }
    clamp_applied_ = targetCapacity;
    clamp_ports_ = interfaceCount();
  }

  const auto latency = forwardingLatency(*packet, in);
  pipeline_.push(ctx_.now() + latency, std::move(packet));
}

std::uint64_t SwitchDevice::serialize(sim::Codec& c) {
  std::uint64_t claimed = Device::serialize(c);
  if (!c.ok()) return claimed;
  c.b(defect_latched_);
  c.b(defect_fixed_);
  if (!c.writing()) clamp_applied_.reset();  // queue capacities were restored
  sim::codecTime(c, window_start_);
  sim::codecSize(c, window_bytes_);
  return claimed + pipeline_.serialize(c);
}

void SwitchDevice::trackLoad(const Packet& packet) {
  if (!defect_.enabled) return;
  const auto now = ctx_.now();
  if (now - window_start_ > defect_.loadWindow) {
    window_start_ = now;
    window_bytes_ = sim::DataSize::zero();
  }
  window_bytes_ += packet.wireSize();
  const double seconds = defect_.loadWindow.toSeconds();
  const double bps = static_cast<double>(window_bytes_.bitCount()) / seconds;
  if (!defect_latched_ && bps > static_cast<double>(defect_.loadThreshold.bps())) {
    defect_latched_ = true;  // sticky, as observed at Colorado
    auto& tel = ctx_.telemetry();
    if (tel.enabled()) ++tel.metrics().counter("switch/" + name() + "/defect_latched");
  }
}

sim::Duration SwitchDevice::forwardingLatency(const Packet& packet, const Interface& in) const {
  const auto ingressRate = in.rate();
  const bool storeForward =
      mode() == ForwardingMode::kStoreAndForward || defect_latched_;
  if (!storeForward) {
    // Cut-through: begin forwarding once the header has arrived. The link
    // already delivered the full frame, so credit back the difference.
    return profile_.processingDelay;
  }
  // Store-and-forward re-buffers the whole frame before the lookup; charge
  // one extra serialization at the ingress rate.
  if (ingressRate == sim::DataRate::zero()) return profile_.processingDelay;
  return profile_.processingDelay + ingressRate.transmissionTime(packet.wireSize());
}

}  // namespace scidmz::net
