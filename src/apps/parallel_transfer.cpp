#include "apps/parallel_transfer.hpp"

namespace scidmz::apps {

ParallelTransfer::ParallelTransfer(net::Host& src, net::Host& dst, std::uint16_t port,
                                   sim::DataSize totalBytes, int streamCount,
                                   tcp::TcpConfig config, net::FlowFidelity fidelity)
    : src_(src), total_(totalBytes) {
  if (streamCount < 1) streamCount = 1;

  // Stripe bytes as evenly as possible; the first stream takes the slack.
  const std::uint64_t base = totalBytes.byteCount() / static_cast<std::uint64_t>(streamCount);
  const std::uint64_t slack = totalBytes.byteCount() % static_cast<std::uint64_t>(streamCount);
  for (int i = 0; i < streamCount; ++i) {
    shares_.push_back(sim::DataSize::bytes(base + (i == 0 ? slack : 0)));
  }

  net::FlowFactory::Options options;
  options.port = port;
  options.streams = streamCount;
  options.fidelity = fidelity;
  flow_ = net::flowFactory(src.ctx()).create(src, dst, config, options);
  flow_->onStreamEstablished = [this](int i) {
    flow_->sendOnStream(i, shares_[static_cast<std::size_t>(i)]);
  };
  flow_->onStreamSendComplete = [this](int) {
    ++completed_streams_;
    if (finished()) {
      finished_at_ = src_.ctx().now();
      if (onComplete) onComplete();
    }
  };
}

ParallelTransfer::~ParallelTransfer() = default;

void ParallelTransfer::start() {
  started_ = true;
  started_at_ = src_.ctx().now();
  flow_->start();
}

sim::Duration ParallelTransfer::elapsed() const {
  if (!started_) return sim::Duration::zero();
  const auto end = finished() ? finished_at_ : src_.ctx().now();
  return end - started_at_;
}

sim::DataRate ParallelTransfer::aggregateGoodput() const {
  const auto span = elapsed();
  if (span <= sim::Duration::zero()) return sim::DataRate::zero();
  const auto acked = flow_->ackedBytes();
  return sim::DataRate::bitsPerSecond(
      static_cast<std::uint64_t>(static_cast<double>(acked.bitCount()) / span.toSeconds()));
}

}  // namespace scidmz::apps
