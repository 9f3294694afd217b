// Point-to-point link: serialization rate, propagation delay, MTU and an
// optional impairment (loss) model per direction.
//
// Propagation delay is fixed for the life of a link, so each direction is
// a FIFO net::DelayLine keyed at send time: one queue entry per busy
// direction however large the bandwidth-delay product, and the snapshot
// record of the packets in flight.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "net/delay_line.hpp"
#include "net/device.hpp"
#include "net/loss.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/codec.hpp"
#include "sim/domain.hpp"
#include "sim/units.hpp"

namespace scidmz::net {

struct LinkParams {
  sim::DataRate rate = sim::DataRate::gigabitsPerSecond(10);
  sim::Duration delay = sim::Duration::microseconds(5);
  sim::DataSize mtu = sim::DataSize::bytes(1500);
};

class Link {
 public:
  /// Each direction's delay line arms in its receiving end's domain.
  Link(LinkParams params, Interface& endA, Interface& endB);

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
  /// applies loss and appends the packet to the direction's delay line (or,
  /// on a cut channel, stages the handle itself for the destination domain).
  /// Takes ownership of the handle; a lost packet's slot recycles here.
  void transmitComplete(int fromEnd, PacketRef packet);

  /// Sharded execution: register one boundary channel per direction
  /// (A->B into `domainB`, then B->A into `domainA`) and key deliveries by
  /// them. Applied to every cut-eligible link (delay >= the lookahead
  /// floor) at every domain count, so event interleaving does not depend on
  /// the partition. A direction whose ends share a domain pushes straight
  /// onto its delay line under the channel key; a cut direction stages its
  /// handles in an Outbox, and marks the sending pool shared.
  /// Staged packets are invisible to snapshots: incompatible with them.
  void routeThroughChannels(sim::ShardedSimulator& sharded, int domainA, int domainB);

  /// Aggregate analytic-flow demand traversing this direction (wire bits/s),
  /// published by tcp::FluidEngine each tick. Packet serialization in this
  /// direction runs at effectiveRate(), which is how fluid flows press on
  /// packet flows sharing the hop.
  void setFluidDemand(int fromEnd, sim::DataRate demand) { fluid_demand_[fromEnd & 1] = demand; }

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

  /// Packets propagating in the direction leaving `fromEnd`.
  [[nodiscard]] std::size_t inFlight(int fromEnd) const { return line_[fromEnd & 1].size(); }

  /// Snapshot/restore of mutable link state: per-direction stats, loss-model
  /// state, published fluid demand, and each delay line.
  /// Returns the pending events claimed: one per non-empty direction.
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

  /// One direction's boundary channel, allocated only in channel mode.
  /// `channel` and `sent` key each delivery. A cut direction also stages:
  /// the sending domain moves each delivered handle into `pending`
  /// mid-epoch; publish() (at the barrier) swaps it with the empty `ready`;
  /// drain(), on the destination domain's thread at its next epoch start,
  /// moves each handle as is onto the delay line. The packet keeps its
  /// source-pool slot, which returns to the source pool without a lock when
  /// the destination lets go of it (see PacketPool::shareAcrossDomains).
  struct Outbox final : sim::ShardedSimulator::Inbox {
    void publish() override { pending.swap(ready); }
    [[nodiscard]] sim::SimTime earliest() const override {
      return ready.empty() ? sim::SimTime::max() : ready.front().at;
    }
    void drain() override;
    [[nodiscard]] std::size_t staged() const override { return pending.size() + ready.size(); }

    Link* link = nullptr;
    int dir = 0;
    bool cut = false;
    std::uint32_t channel = 0;
    std::uint64_t sent = 0;
    detail::Ring<DelayRecord> pending;  ///< the sender's
    // The destination drains while the sender stages: separate lines.
    alignas(64) detail::Ring<DelayRecord> ready;
  };

  LinkParams params_;
  Interface& endA_;
  Interface& endB_;
  std::unique_ptr<LossModel> loss_[2];
  DirectionStats stats_[2];
  DirTelemetry tel_[2];
  sim::DataRate fluid_demand_[2];
  /// Packets propagating away from end 0 and end 1. Each line arms in the
  /// far end's domain and hands its packets to the far interface.
  DelayLine<Interface, &Interface::receive> line_[2];
  std::unique_ptr<Outbox> outbox_[2];
};

}  // namespace scidmz::net
