// Link impairment models.
//
// Soft failures in the paper are dominated by loss that standard error
// counters miss: a failing line card dropping 1 of every 22,000 packets,
// dirty optics, etc. Each model decides per-packet whether the link eats it.
#pragma once

#include <cstdint>
#include <memory>

#include "net/packet.hpp"
#include "sim/codec.hpp"
#include "sim/random.hpp"

namespace scidmz::net {

/// Per-packet drop decision. Implementations must be deterministic given
/// their seeded Rng and call order.
class LossModel {
 public:
  virtual ~LossModel() = default;
  [[nodiscard]] virtual bool shouldDrop(const Packet& packet) = 0;

  /// Long-run average drop probability — the `p` the fluid model's CC
  /// response function sees when analytic flows traverse this link.
  [[nodiscard]] virtual double dropRate() const { return 0.0; }

  /// Snapshot/restore of mutable decision state (Rng position, periodic
  /// counters). Parameters (rates, intervals) are rebuilt
  /// by scenario reconstruction, not serialized. Stateless models inherit
  /// the no-op.
  virtual void serializeState(sim::Codec&) {}
};

/// Never drops. The default for healthy links.
class NoLoss final : public LossModel {
 public:
  bool shouldDrop(const Packet&) override { return false; }
};

/// Independent random loss with fixed probability (dirty optics, marginal
/// transceivers).
class RandomLoss final : public LossModel {
 public:
  RandomLoss(double probability, sim::Rng rng) : p_(probability), rng_(rng) {}
  bool shouldDrop(const Packet&) override { return rng_.chance(p_); }
  [[nodiscard]] double dropRate() const override { return p_; }
  void serializeState(sim::Codec& c) override { rng_.serialize(c); }

 private:
  double p_;
  sim::Rng rng_;
};

/// Drops exactly one packet out of every `interval` — the Section 2 failing
/// line card (1 / 22,000). Deterministic, independent of seed.
class PeriodicLoss final : public LossModel {
 public:
  explicit PeriodicLoss(std::uint64_t interval) : interval_(interval == 0 ? 1 : interval) {}
  bool shouldDrop(const Packet&) override {
    if (++count_ >= interval_) {
      count_ = 0;
      return true;
    }
    return false;
  }
  [[nodiscard]] double dropRate() const override {
    return 1.0 / static_cast<double>(interval_);
  }
  void serializeState(sim::Codec& c) override { c.vu64(count_); }

 private:
  std::uint64_t interval_;
  std::uint64_t count_ = 0;
};

}  // namespace scidmz::net
