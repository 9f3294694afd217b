// Stateful firewall appliance model.
//
// Section 5 of the paper explains why firewalls break science flows even
// when their nominal aggregate throughput matches the interface speed:
// internally they fan packets out to a set of lower-speed inspection
// engines behind a small shared input buffer. Line-rate TCP bursts from a
// fast host overflow that buffer and the resulting loss collapses TCP.
//
// The model: each flow hashes to one of `engineCount` engines running at
// `engineRate`; packets queue in a shared byte-bounded input buffer; when
// the buffer is full, arrivals drop. An optional "TCP flow sequence
// checking" feature rewrites TCP SYN options, stripping window scaling —
// the documented Penn State / VTTI failure (a violation of RFC 1323).
//
// Packets under inspection wait in their engine's DelayLine. An engine's
// release time, max(now, busyUntil) + serialization + inspectionDelay,
// never decreases, so each engine releases in arrival order.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "net/acl.hpp"
#include "net/device.hpp"
#include "net/link.hpp"

namespace scidmz::net {

struct FirewallProfile {
  /// Number of parallel inspection engines.
  int engineCount = 8;
  /// Per-engine processing rate. Aggregate = engineCount * engineRate.
  sim::DataRate engineRate = sim::DataRate::megabitsPerSecond(1250);
  /// Shared input buffer in front of the engines. Small by design: sized
  /// for the many-low-speed-flows business traffic profile.
  sim::DataSize inputBuffer = sim::DataSize::kibibytes(256);
  /// Fixed per-packet inspection latency on top of engine serialization.
  sim::Duration inspectionDelay = sim::Duration::microseconds(20);
  /// Maximum concurrent tracked sessions; SYNs beyond this are dropped.
  std::size_t sessionTableSize = 1'000'000;
  /// "TCP flow sequence checking": rewrites TCP headers, stripping the
  /// window-scale option from SYN segments (the Penn State setting).
  bool tcpSequenceChecking = false;
  /// Egress buffer for ports added via Topology helpers.
  sim::DataSize egressBuffer = sim::DataSize::mebibytes(4);

  /// A typical enterprise perimeter firewall with 10G interfaces: eight
  /// 1.25 Gbps engines, shallow input buffering, sequence checking on.
  static FirewallProfile enterprise10G() {
    FirewallProfile p;
    p.tcpSequenceChecking = true;
    return p;
  }
};

struct FirewallStats {
  std::uint64_t inspected = 0;
  std::uint64_t dropsInputBuffer = 0;
  std::uint64_t dropsPolicy = 0;
  std::uint64_t dropsSessionTable = 0;
  std::uint64_t synsRewritten = 0;
  std::size_t peakSessions = 0;
};

class FirewallDevice : public Device {
 public:
  FirewallDevice(Context& ctx, std::string name,
                 FirewallProfile profile = FirewallProfile::enterprise10G())
      : Device(ctx, std::move(name)), profile_(profile) {
    for (int i = 0; i < profile_.engineCount; ++i) engines_.emplace_back(ctx, *this);
  }

  [[nodiscard]] const FirewallProfile& profile() const { return profile_; }
  [[nodiscard]] const FirewallStats& firewallStats() const { return fw_stats_; }

  /// Security policy evaluated per packet (permits establish sessions).
  void setPolicy(AclTable policy) { policy_ = std::move(policy); }
  [[nodiscard]] const AclTable& policy() const { return policy_; }

  /// The Penn State fix: disable TCP flow sequence checking at runtime.
  void setTcpSequenceChecking(bool on) { profile_.tcpSequenceChecking = on; }

  /// Flows granted a bypass skip the engines entirely (installed by the
  /// SDN controller after IDS vetting; see src/vc/openflow).
  void addBypass(const FlowKey& flow) {
    bypass_.insert(flow);
    bypass_.insert(flow.reversed());
  }

  void receive(PacketRef packet, Interface& in) override;

  /// Packets under inspection, over all engines.
  [[nodiscard]] std::size_t inInspection() const {
    std::size_t n = 0;
    for (const Engine& e : engines_) n += e.line.size();
    return n;
  }

  /// Snapshot/restore of the firewall's state: each engine's busy horizon
  /// and the packets under inspection in its line, the shared input-buffer
  /// occupancy, the session table, bypass entries and firewall stats (maps
  /// written in sorted key order for determinism).
  std::uint64_t serialize(sim::Codec& c) override;

 private:
  /// An engine is done with `packet`: free its input-buffer share, forward it.
  void release(PacketRef packet);

  struct Engine {
    Engine(Context& ctx, FirewallDevice& fw) : line(ctx, fw) {}
    sim::SimTime busyUntil = sim::SimTime::zero();
    DelayLine<FirewallDevice, &FirewallDevice::release> line;  ///< Packets under inspection.
  };

  /// Lazily interns the input-stage emit point, caches drop/rewrite
  /// counters and registers the buffered-bytes probe.
  void initTelemetry();
  void addProbe();

  FirewallProfile profile_;
  AclTable policy_{AclAction::kPermit};
  FirewallStats fw_stats_;
  std::deque<Engine> engines_;  // deque: a DelayLine never moves
  sim::DataSize buffered_ = sim::DataSize::zero();
  std::unordered_map<FlowKey, sim::SimTime, FlowKeyHash> sessions_;

  bool tel_init_ = false;
  bool tel_probe_ = false;
  std::uint32_t tel_point_ = 0;
  std::uint64_t* tel_drops_buffer_ = nullptr;
  std::uint64_t* tel_drops_policy_ = nullptr;
  std::uint64_t* tel_drops_session_ = nullptr;
  std::uint64_t* tel_syns_rewritten_ = nullptr;
  std::uint64_t* tel_inspected_ = nullptr;

  std::unordered_set<FlowKey, FlowKeyHash> bypass_;  ///< Flows granted engine bypass.
};

}  // namespace scidmz::net
