#include "net/switch.hpp"

#include "net/codec.hpp"
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
      telemetry::FlightEvent ev = makeFlightEvent(ctx_.now(), *packet);
      ev.kind = telemetry::FlightEventKind::kDrop;
      ev.point = tel.recorder().internPoint(name() + "/acl");
      tel.recorder().record(ev);
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
  if (ctx_.snapshotsArmed()) {
    Packet copy = *packet;
    const std::uint64_t token = next_fwd_token_++;
    const auto id = ctx_.sim().schedule(
        latency, [this, token, pkt = std::move(packet)]() mutable {
          eraseInFlight(token);
          forward(std::move(pkt));
        });
    in_flight_.push_back(InFlight{token, id, std::move(copy)});
    return;
  }
  ctx_.sim().schedule(latency, [this, pkt = std::move(packet)]() mutable {
    forward(std::move(pkt));
  });
}

void SwitchDevice::eraseInFlight(std::uint64_t token) {
  for (auto it = in_flight_.begin(); it != in_flight_.end(); ++it) {
    if (it->token == token) {
      in_flight_.erase(it);
      return;
    }
  }
}

std::uint64_t SwitchDevice::serialize(sim::Codec& c) {
  std::uint64_t claimed = Device::serialize(c);
  if (!c.ok()) return claimed;
  c.b(defect_latched_);
  c.b(defect_fixed_);
  if (!c.writing()) clamp_applied_.reset();  // queue capacities were restored
  sim::codecTime(c, window_start_);
  sim::codecSize(c, window_bytes_);
  if (c.writing()) {
    std::uint64_t n = in_flight_.size();
    c.vu64(n);
    for (auto& rec : in_flight_) {
      auto key = ctx_.sim().eventKey(rec.id);
      bool valid = key.valid;
      sim::SimTime at = key.at;
      std::uint64_t seq = key.seq;
      c.b(valid);
      sim::codecTime(c, at);
      c.vu64(seq);
      codecPacket(c, rec.packet);
      ++claimed;
    }
  } else {
    in_flight_.clear();
    std::uint64_t n = 0;
    c.vu64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      bool valid = false;
      sim::SimTime at = sim::SimTime::zero();
      std::uint64_t seq = 0;
      c.b(valid);
      sim::codecTime(c, at);
      c.vu64(seq);
      Packet p;
      codecPacket(c, p);
      if (!valid) {
        c.reader().markFailed();
        return claimed;
      }
      Packet copy = p;
      PacketRef ref = ctx_.pool().acquire(std::move(p));
      const std::uint64_t token = next_fwd_token_++;
      const auto id = ctx_.sim().restoreSchedule(
          at, seq, [this, token, pkt = std::move(ref)]() mutable {
            eraseInFlight(token);
            forward(std::move(pkt));
          });
      in_flight_.push_back(InFlight{token, id, std::move(copy)});
      ++claimed;
    }
  }
  return claimed;
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
    ctx_.log().log(now, sim::LogLevel::kWarn, name(),
                   "high load: falling back to store-and-forward mode");
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
