// Forwarding devices: switches and routers.
//
// Both forward by longest-prefix match with per-port byte-bounded egress
// queues; the difference is configuration. Switch profiles capture the two
// populations the paper contrasts: deep-buffered "science" switches that
// absorb TCP bursts and fan-in, and cheap LAN switches that cannot. The
// optional fan-in defect reproduces the University of Colorado vendor bug:
// under high offered load the device falls back from cut-through to
// store-and-forward and, pre-fix, loses most of its usable buffer.
//
// Packets inside the forwarding latency wait in one DelayLine. Latency
// depends on the frame size under store-and-forward, so a short frame can
// overtake a long one; the line keeps (at, seq) order either way.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/acl.hpp"
#include "net/device.hpp"
#include "net/link.hpp"

namespace scidmz::net {

enum class ForwardingMode : std::uint8_t { kCutThrough, kStoreAndForward };

struct SwitchProfile {
  /// Default egress buffer for ports added via Topology helpers.
  sim::DataSize egressBuffer = sim::DataSize::mebibytes(32);
  /// Fixed pipeline latency added to every forwarded packet.
  sim::Duration processingDelay = sim::Duration::microseconds(1);
  ForwardingMode mode = ForwardingMode::kCutThrough;
  /// Bytes of a frame that must arrive before cut-through forwarding starts.
  sim::DataSize cutThroughHeader = sim::DataSize::bytes(64);

  /// Deep-buffered science-DMZ switch/router.
  static SwitchProfile scienceDmz() { return SwitchProfile{}; }

  /// Inexpensive campus LAN switch: shallow shared buffer.
  static SwitchProfile cheapLan() {
    SwitchProfile p;
    p.egressBuffer = sim::DataSize::kibibytes(192);
    return p;
  }
};

/// The Colorado defect: when aggregate ingress load exceeds `loadThreshold`
/// the device latches into store-and-forward mode, and while the defect is
/// unfixed the usable egress buffer collapses to `defectiveBuffer`.
struct FanInDefect {
  bool enabled = false;
  sim::DataRate loadThreshold = sim::DataRate::gigabitsPerSecond(8);
  sim::DataSize defectiveBuffer = sim::DataSize::kibibytes(64);
  sim::Duration loadWindow = sim::Duration::milliseconds(10);
};

class SwitchDevice : public Device {
 public:
  SwitchDevice(Context& ctx, std::string name, SwitchProfile profile = SwitchProfile::scienceDmz())
      : Device(ctx, std::move(name)),
        profile_(profile),
        pipeline_(ctx, *this) {}

  [[nodiscard]] const SwitchProfile& profile() const { return profile_; }
  [[nodiscard]] ForwardingMode mode() const { return mode_override_.value_or(profile_.mode); }
  void setMode(ForwardingMode m) { mode_override_ = m; }

  /// Optional ingress ACL applied to all transiting packets (line rate).
  void setAcl(AclTable acl) { acl_ = std::move(acl); }
  [[nodiscard]] const std::optional<AclTable>& acl() const { return acl_; }

  void setFanInDefect(FanInDefect defect) { defect_ = defect; }
  /// Apply the vendor firmware fix: store-and-forward keeps full buffers.
  void applyVendorFix() { defect_fixed_ = true; }
  [[nodiscard]] bool inDefectiveState() const { return defect_latched_ && !defect_fixed_; }
  /// True once high load has forced the store-and-forward fallback
  /// (regardless of whether the firmware fix neutralizes the buffer bug).
  [[nodiscard]] bool fallbackLatched() const { return defect_latched_; }

  void receive(PacketRef packet, Interface& in) override;

  /// Packets inside the forwarding latency.
  [[nodiscard]] std::size_t inPipeline() const { return pipeline_.size(); }

  /// Snapshot/restore: device state, the defect latch and its load window,
  /// and the forwarding pipeline's line.
  std::uint64_t serialize(sim::Codec& c) override;

 private:
  void trackLoad(const Packet& packet);
  [[nodiscard]] sim::Duration forwardingLatency(const Packet& packet, const Interface& in) const;

  SwitchProfile profile_;
  std::optional<ForwardingMode> mode_override_;
  std::optional<AclTable> acl_;

  FanInDefect defect_;
  bool defect_latched_ = false;
  bool defect_fixed_ = false;
  /// Egress capacity last clamped onto the queues, and how many queues
  /// there were; unset until the first packet and after a restore.
  std::optional<sim::DataSize> clamp_applied_;
  std::size_t clamp_ports_ = 0;
  sim::SimTime window_start_ = sim::SimTime::zero();
  sim::DataSize window_bytes_ = sim::DataSize::zero();
  /// Packets inside the forwarding latency, forwarded when due.
  DelayLine<Device, &SwitchDevice::forward> pipeline_;
};

/// Routers share the switch forwarding machinery; the distinct type exists
/// because the design-pattern validator reasons about device roles (border
/// router vs DMZ switch vs LAN switch).
class RouterDevice : public SwitchDevice {
 public:
  RouterDevice(Context& ctx, std::string name, SwitchProfile profile = SwitchProfile::scienceDmz())
      : SwitchDevice(ctx, std::move(name), profile) {
    setMode(ForwardingMode::kStoreAndForward);
  }
};

}  // namespace scidmz::net
