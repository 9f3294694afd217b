// H-TCP ("TCP-Hamilton", Leith & Shorten 2004): the high-BDP algorithm
// measured in Figure 1 of the paper. The additive-increase factor grows
// with the time elapsed since the last congestion event, so large windows
// recover far faster than Reno's one-MSS-per-RTT; the backoff factor
// adapts to the observed RTT range.
#pragma once

#include "tcp/congestion.hpp"

namespace scidmz::tcp {

class HtcpCc final : public CongestionControl {
 public:
  void onAckedBytes(CcState& state, std::uint64_t ackedBytes, sim::Duration srtt,
                    sim::SimTime now) override;
  void onPacketLoss(CcState& state, sim::SimTime now) override;
  void onRto(CcState& state, sim::SimTime now) override;
  void onRttSample(sim::Duration rtt) override;
  void serializeState(sim::Codec& c) override {
    sim::codecTime(c, last_loss_);
    c.b(had_loss_);
    c.f64(rtt_min_s_);
    c.f64(rtt_max_s_);
  }
  [[nodiscard]] std::string_view name() const override { return toString(CcAlgorithm::kHtcp); }

 private:
  [[nodiscard]] double alpha(sim::SimTime now) const;

  static constexpr double kDeltaL = 1.0;     // seconds of Reno-compatible regime
  static constexpr double kBetaMin = 0.5;
  static constexpr double kBetaMax = 0.8;

  sim::SimTime last_loss_;
  bool had_loss_ = false;
  double rtt_min_s_ = 1e9;
  double rtt_max_s_ = 0.0;
};

}  // namespace scidmz::tcp
