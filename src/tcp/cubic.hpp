// CUBIC congestion control (RFC 8312, simplified): window growth follows a
// cubic function of time since the last loss, independent of RTT, with a
// TCP-friendly region so it never underperforms Reno.
#pragma once

#include "tcp/congestion.hpp"

namespace scidmz::tcp {

class CubicCc final : public CongestionControl {
 public:
  void onAckedBytes(CcState& state, std::uint64_t ackedBytes, sim::Duration srtt,
                    sim::SimTime now) override;
  void onPacketLoss(CcState& state, sim::SimTime now) override;
  void onRto(CcState& state, sim::SimTime now) override;
  void serializeState(sim::Codec& c) override {
    c.f64(w_max_);
    sim::codecTime(c, epoch_start_);
    c.b(in_epoch_);
  }
  [[nodiscard]] std::string_view name() const override { return toString(CcAlgorithm::kCubic); }

 private:
  static constexpr double kBeta = 0.7;   // multiplicative decrease
  static constexpr double kC = 0.4;      // cubic scaling constant (segments/s^3)

  double w_max_ = 0.0;                   // window (segments) at last loss
  sim::SimTime epoch_start_;             // start of the current growth epoch
  bool in_epoch_ = false;
};

}  // namespace scidmz::tcp
