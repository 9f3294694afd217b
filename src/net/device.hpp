// Device base class: anything with interfaces and a forwarding table.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/address.hpp"
#include "net/context.hpp"
#include "net/delay_line.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/codec.hpp"
#include "sim/units.hpp"

namespace scidmz::net {

class Device;
class Link;

/// A device port: owns the egress drop-tail queue and the transmit state
/// machine for its attached link direction. The packet being serialized
/// waits in a one-record DelayLine until its last bit is on the wire.
class Interface {
 public:
  Interface(Context& ctx, Device& owner, int index, sim::DataSize egressBuffer);

  Interface(const Interface&) = delete;
  Interface& operator=(const Interface&) = delete;

  void attachLink(Link& link, int end);
  [[nodiscard]] bool attached() const { return link_ != nullptr; }
  [[nodiscard]] Link* link() const { return link_; }
  [[nodiscard]] int linkEnd() const { return end_; }

  /// Enqueue for transmission; drops (with stats) if the egress buffer is
  /// full or no link is attached. Consumes the handle either way.
  void send(PacketRef packet);
  /// A packet arrives from the wire: hand it to the owning device (inline
  /// below Device: each link delivery goes through it).
  void receive(PacketRef packet);

  [[nodiscard]] sim::DataRate rate() const;
  [[nodiscard]] Device& owner() const { return owner_; }
  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] DropTailQueue& queue() { return queue_; }
  [[nodiscard]] const DropTailQueue& queue() const { return queue_; }

  struct Stats {
    std::uint64_t txPackets = 0;
    sim::DataSize txBytes = sim::DataSize::zero();
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Snapshot/restore: tx stats, utilization-probe accumulator, the egress
  /// queue contents, and the tx line (the packet being serialized, if any).
  /// Returns the number of pending events claimed (0 or 1).
  std::uint64_t serialize(sim::Codec& c);

 private:
  void startNextTransmission();
  /// Tx complete: hand the serialized packet to the link, start the next.
  void completeTransmission(PacketRef packet);
  /// Lazily interns this port's emit point, caches its drop counter, and
  /// registers the probes. Called on the first packet seen with telemetry
  /// enabled, so uninstrumented runs pay nothing and emit points appear in
  /// deterministic (traffic) order.
  void initTelemetry();
  /// Registers the queue-depth and link-utilization probes.
  void addProbes();

  Context& ctx_;
  Device& owner_;
  int index_;
  DropTailQueue queue_;
  Link* link_ = nullptr;
  int end_ = 0;
  Stats stats_;
  bool tel_init_ = false;
  bool tel_probes_ = false;
  std::uint32_t tel_point_ = 0;
  std::uint64_t* tel_drops_ = nullptr;
  // Utilization-sampler accumulator (bytes/time at the previous sample).
  // Members rather than lambda captures so snapshots can carry them — a
  // restored run's first utilization sample must see the same baseline.
  std::uint64_t util_last_bytes_ = 0;
  std::int64_t util_last_ns_ = 0;
  /// Empty when idle, else the packet being serialized.
  DelayLine<Interface, &Interface::completeTransmission> tx_;
};

struct DeviceStats {
  std::uint64_t rxPackets = 0;
  sim::DataSize rxBytes = sim::DataSize::zero();
  std::uint64_t dropsNoRoute = 0;
  std::uint64_t dropsTtl = 0;
  std::uint64_t dropsAcl = 0;
  std::uint64_t dropsOther = 0;

  void serialize(sim::Codec& c) {
    c.vu64(rxPackets);
    sim::codecSize(c, rxBytes);
    c.vu64(dropsNoRoute);
    c.vu64(dropsTtl);
    c.vu64(dropsAcl);
    c.vu64(dropsOther);
  }
};

/// Base class for hosts, switches, routers and firewalls.
class Device {
 public:
  Device(Context& ctx, std::string name);
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Add a port with the given egress buffer. Returns the new interface.
  Interface& addInterface(sim::DataSize egressBuffer);

  /// Packet arrives from the wire on `in`. Called by Link. Takes ownership.
  virtual void receive(PacketRef packet, Interface& in) = 0;

  /// Longest-prefix-match route installation / lookup. Lookups hit a
  /// compiled FIB — an exact-match table for /32 routes (the common case:
  /// Topology::computeRoutes installs host routes only) plus a short
  /// descending-length scan for wider prefixes — fronted by a per-device
  /// flow cache. Any route mutation bumps the generation stamp, which
  /// invalidates the cache and forces a recompile on next lookup.
  void addRoute(Prefix prefix, int ifIndex);
  void clearRoutes();
  [[nodiscard]] std::optional<int> lookupRoute(Address dst) const;
  /// Compile the FIB now instead of lazily on first lookup. Called by
  /// Topology::computeRoutes so route churn costs are paid at (re)config
  /// time, never mid-traffic.
  void finalizeRoutes() const { if (!fib_compiled_) compileFib(); }
  /// Monotonic stamp bumped on every addRoute/clearRoutes; flow-cache
  /// entries from older generations never match.
  [[nodiscard]] std::uint64_t routeGeneration() const { return route_generation_; }
  [[nodiscard]] bool fibCompiled() const { return fib_compiled_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Context& ctx() { return ctx_; }
  [[nodiscard]] std::size_t interfaceCount() const { return interfaces_.size(); }
  [[nodiscard]] Interface& interface(std::size_t i) { return *interfaces_.at(i); }
  [[nodiscard]] const Interface& interface(std::size_t i) const { return *interfaces_.at(i); }

  [[nodiscard]] DeviceStats& stats() { return stats_; }
  [[nodiscard]] const DeviceStats& stats() const { return stats_; }

  /// Passive monitoring tap (IDS, debugging): sees every packet the device
  /// receives, before any forwarding decision. Zero data-path cost.
  using Tap = std::function<void(const Packet&, const Interface&)>;
  void setTap(Tap tap) { tap_ = std::move(tap); }

  /// Snapshot/restore of mutable device state: stats plus every interface.
  /// Routes, the compiled FIB and the flow cache are derived state, rebuilt
  /// by scenario reconstruction. Subclasses with extra mutable state
  /// (Switch defect latch, Host ephemeral-port counter) override and chain.
  /// Returns the number of pending events claimed by this device.
  virtual std::uint64_t serialize(sim::Codec& c);

 protected:
  void notifyTap(const Packet& packet, const Interface& in) {
    if (tap_) tap_(packet, in);
  }

  /// Route `packet` by destination and enqueue on the egress interface.
  /// Decrements TTL; drops on TTL expiry or missing route (counted and
  /// telemetry-tagged separately).
  void forward(PacketRef packet);

  Context& ctx_;
  DeviceStats stats_;

 private:
  struct RouteEntry {
    Prefix prefix;
    int ifIndex;
  };

  /// One direct-mapped flow-cache slot. `generation` from before the last
  /// route change never equals route_generation_, so stale hits are
  /// structurally impossible; ifIndex -1 caches a negative lookup.
  struct FlowCacheSlot {
    std::uint32_t dst = 0;
    std::uint64_t generation = 0;
    int ifIndex = -1;
  };
  static constexpr std::size_t kFlowCacheSlots = 256;

  void compileFib() const;

  std::string name_;
  std::vector<std::unique_ptr<Interface>> interfaces_;
  std::vector<RouteEntry> routes_;  // kept sorted by descending prefix length
  // Compiled forwarding state; mutable so lookupRoute stays const for
  // read-only callers (Topology::trace). Generation starts at 1 so
  // zero-initialized cache slots can never match.
  mutable bool fib_compiled_ = false;
  mutable std::unordered_map<std::uint32_t, int> fib_exact_;
  mutable std::vector<RouteEntry> fib_prefixes_;
  mutable std::array<FlowCacheSlot, kFlowCacheSlots> flow_cache_{};
  std::uint64_t route_generation_ = 1;
  Tap tap_;
};

inline void Interface::receive(PacketRef packet) { owner_.receive(std::move(packet), *this); }

}  // namespace scidmz::net
