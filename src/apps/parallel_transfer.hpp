// Parallel-stream transfer tool in the mold of GridFTP / FDT: stripes one
// logical dataset across N TCP streams to the same server port.
//
// Parallel streams matter under residual loss: each stream keeps its own
// congestion window, so a drop halves 1/N of the aggregate instead of all
// of it — the reason DTN tooling defaults to striped transfers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/flow.hpp"
#include "net/host.hpp"
#include "tcp/connection.hpp"

namespace scidmz::apps {

class ParallelTransfer {
 public:
  ParallelTransfer(net::Host& src, net::Host& dst, std::uint16_t port, sim::DataSize totalBytes,
                   int streamCount, tcp::TcpConfig config,
                   net::FlowFidelity fidelity = net::FlowFidelity::kPacket);
  ~ParallelTransfer();

  ParallelTransfer(const ParallelTransfer&) = delete;
  ParallelTransfer& operator=(const ParallelTransfer&) = delete;

  void start();

  std::function<void()> onComplete;

  [[nodiscard]] bool finished() const {
    return completed_streams_ == static_cast<std::size_t>(flow_->streamCount());
  }
  [[nodiscard]] int streamCount() const { return flow_->streamCount(); }
  [[nodiscard]] sim::Duration elapsed() const;
  /// Aggregate goodput: total bytes over wall time from start to last
  /// stream completion.
  [[nodiscard]] sim::DataRate aggregateGoodput() const;
  [[nodiscard]] sim::DataSize totalBytes() const { return total_; }

 private:
  net::Host& src_;
  sim::DataSize total_;
  net::FlowPtr flow_;
  std::vector<sim::DataSize> shares_;
  std::size_t completed_streams_ = 0;
  sim::SimTime started_at_;
  sim::SimTime finished_at_;
  bool started_ = false;
};

}  // namespace scidmz::apps
