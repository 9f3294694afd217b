// Point-to-point link: serialization rate, propagation delay, MTU and an
// optional impairment (loss) model per direction.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "net/context.hpp"
#include "net/loss.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/codec.hpp"
#include "sim/event_queue.hpp"
#include "sim/units.hpp"

namespace scidmz::sim {
class ShardedSimulator;
}

namespace scidmz::net {

class Interface;

struct LinkParams {
  sim::DataRate rate = sim::DataRate::gigabitsPerSecond(10);
  sim::Duration delay = sim::Duration::microseconds(5);
  sim::DataSize mtu = sim::DataSize::bytes(1500);
};

class Link {
 public:
  Link(Context& ctx, LinkParams params, Interface& endA, Interface& endB);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  [[nodiscard]] sim::DataRate rate() const { return params_.rate; }
  [[nodiscard]] sim::Duration delay() const { return params_.delay; }
  [[nodiscard]] sim::DataSize mtu() const { return params_.mtu; }

  /// Install an impairment model for packets leaving `fromEnd` (0 or 1).
  void setLossModel(int fromEnd, std::unique_ptr<LossModel> model);
  /// Remove impairments in both directions (the "repair" operation in the
  /// soft-failure troubleshooting scenarios).
  void repair();

  /// Called by the transmitting Interface when serialization finishes;
  /// applies loss and schedules delivery to the far end after propagation.
  /// Takes ownership of the handle; a lost packet's slot recycles here.
  void transmitComplete(int fromEnd, PacketRef packet);

  /// Sharded execution: route deliveries through per-direction boundary
  /// channels of `sharded` instead of scheduling directly. Applied to every
  /// cut-eligible link (delay >= the lookahead floor) at every domain
  /// count — including links whose ends landed in the same domain — so the
  /// event interleaving is a property of the topology, not the partition.
  /// Incompatible with armed snapshots.
  void setChannelMode(sim::ShardedSimulator& sharded, std::uint32_t channelAtoB,
                      std::uint32_t channelBtoA) {
    sharded_ = &sharded;
    channel_[0] = channelAtoB;
    channel_[1] = channelBtoA;
  }
  [[nodiscard]] bool channelMode() const { return sharded_ != nullptr; }

  /// Aggregate analytic-flow demand traversing this direction (wire bits/s),
  /// published by tcp::FluidEngine each tick. Packet serialization in this
  /// direction runs at effectiveRate(), which is how fluid flows press on
  /// packet flows sharing the hop.
  void setFluidDemand(int fromEnd, sim::DataRate demand) { fluid_demand_[fromEnd & 1] = demand; }
  [[nodiscard]] sim::DataRate fluidDemand(int fromEnd) const { return fluid_demand_[fromEnd & 1]; }

  /// Serialization rate left for packet traffic in this direction: exactly
  /// rate() when no fluid demand is published (packet-only scenarios are
  /// bit-identical to a tree without fluid support), otherwise the residual
  /// capacity floored at 1% of rate() so saturating fluid load slows packet
  /// flows without stalling them outright.
  [[nodiscard]] sim::DataRate effectiveRate(int fromEnd) const {
    const std::uint64_t demand = fluid_demand_[fromEnd & 1].bps();
    if (demand == 0) return params_.rate;
    const std::uint64_t full = params_.rate.bps();
    std::uint64_t floor = full / 100;
    if (floor == 0) floor = 1;
    const std::uint64_t residual = full > demand ? full - demand : 0;
    return sim::DataRate::bitsPerSecond(residual > floor ? residual : floor);
  }

  /// Long-run drop probability of this direction's impairment model (0 when
  /// healthy). Consumed by the fluid response function.
  [[nodiscard]] double lossRate(int fromEnd) const {
    const auto& loss = loss_[fromEnd & 1];
    return loss ? loss->dropRate() : 0.0;
  }

  [[nodiscard]] Interface& end(int which) const { return which == 0 ? endA_ : endB_; }
  [[nodiscard]] Interface& peer(int fromEnd) const { return end(1 - fromEnd); }

  struct DirectionStats {
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;
    sim::DataSize bytesDelivered = sim::DataSize::zero();

    [[nodiscard]] double lossFraction() const {
      const auto total = delivered + lost;
      return total == 0 ? 0.0 : static_cast<double>(lost) / static_cast<double>(total);
    }
  };
  [[nodiscard]] const DirectionStats& stats(int fromEnd) const { return stats_[fromEnd & 1]; }

  /// Snapshot/restore of mutable link state: per-direction stats, loss-model
  /// state, published fluid demand, and the packets currently in flight
  /// (propagating) with their original event keys. Requires snapshots to be
  /// armed on the owning Context from run start (Context::armSnapshots()).
  /// Returns the number of pending delivery events this link accounts for.
  std::uint64_t serialize(sim::Codec& c);

 private:
  /// Lazily interned per-direction emit point + cached counters.
  struct DirTelemetry {
    bool init = false;
    std::uint32_t point = 0;
    std::uint64_t* lost = nullptr;
    std::uint64_t* delivered = nullptr;
  };
  void initTelemetry(int dir);

  /// A packet propagating in one direction: the delivery event's id (to
  /// recover its (at, seq) key at snapshot time) plus a copy of the packet.
  /// Propagation delay is per-direction constant, so deliveries fire in
  /// schedule order and the record is a FIFO popped on fire. Only populated
  /// while snapshots are armed.
  struct InFlight {
    sim::EventId id{};
    Packet packet;
  };

  Context& ctx_;
  LinkParams params_;
  Interface& endA_;
  Interface& endB_;
  sim::ShardedSimulator* sharded_ = nullptr;
  std::uint32_t channel_[2] = {0, 0};
  std::unique_ptr<LossModel> loss_[2];
  DirectionStats stats_[2];
  DirTelemetry tel_[2];
  sim::DataRate fluid_demand_[2];
  std::deque<InFlight> in_flight_[2];
};

}  // namespace scidmz::net
