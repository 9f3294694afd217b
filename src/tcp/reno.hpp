// TCP Reno congestion avoidance (RFC 5681): slow start doubling, +1 MSS per
// RTT in congestion avoidance, halve on loss.
#pragma once

#include "tcp/congestion.hpp"

namespace scidmz::tcp {

class RenoCc final : public CongestionControl {
 public:
  void onAckedBytes(CcState& state, std::uint64_t ackedBytes, sim::Duration srtt,
                    sim::SimTime now) override;
  void onPacketLoss(CcState& state, sim::SimTime now) override;
  [[nodiscard]] std::string_view name() const override { return toString(CcAlgorithm::kReno); }
};

}  // namespace scidmz::tcp
