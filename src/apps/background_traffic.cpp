#include "apps/background_traffic.hpp"

#include <algorithm>
#include <string>

#include "scenario/callback_registry.hpp"

namespace scidmz::apps {

namespace {
/// Stable snapshot name for one generator's arrival process; the port
/// block distinguishes generators sharing a Context.
std::string arrivalName(std::uint16_t basePort) {
  return "background_traffic/" + std::to_string(basePort) + "/arrival";
}
}  // namespace

BackgroundTraffic::BackgroundTraffic(net::Context& ctx, std::vector<net::Host*> clients,
                                     std::vector<net::Host*> servers, std::uint16_t basePort,
                                     BackgroundProfile profile, sim::Rng rng)
    : ctx_(ctx),
      clients_(std::move(clients)),
      servers_(std::move(servers)),
      base_port_(basePort),
      profile_(profile),
      rng_(rng) {}

void BackgroundTraffic::start() {
  if (running_ || clients_.empty() || servers_.empty()) return;
  running_ = true;
  scheduleNextArrival();
}

void BackgroundTraffic::stop() {
  running_ = false;
  ctx_.extension<scenario::CallbackRegistry>().cancelNamed(ctx_.sim(), arrivalName(base_port_));
}

void BackgroundTraffic::scheduleNextArrival() {
  if (!running_) return;
  auto& callbacks = ctx_.extension<scenario::CallbackRegistry>();
  const std::string name = arrivalName(base_port_);
  if (!callbacks.registered(name)) {
    callbacks.registerNamed(name, [this] {
      launchFlow();
      scheduleNextArrival();
    });
  }
  const auto gap = rng_.exponential(sim::Duration::fromSeconds(1.0 / profile_.flowsPerSecond));
  callbacks.scheduleNamed(ctx_.sim(), name, gap);
}

void BackgroundTraffic::launchFlow() {
  net::Host* client = clients_[rng_.below(clients_.size())];
  net::Host* server = servers_[rng_.below(servers_.size())];
  if (client == server) return;

  const double sized = rng_.pareto(profile_.paretoAlpha,
                                   static_cast<double>(profile_.minFlowSize.byteCount()));
  const auto size = sim::DataSize::bytes(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(sized), profile_.maxFlowSize.byteCount()));

  // Spread listeners over a port block so concurrent flows to one server
  // do not collide.
  const std::uint16_t port = static_cast<std::uint16_t>(base_port_ + next_port_offset_);
  next_port_offset_ = static_cast<std::uint16_t>((next_port_offset_ + 1) % kPortBlock);

  auto flow = std::make_unique<BulkTransfer>(*client, *server, port, size, profile_.tcp,
                                             profile_.fidelity);
  auto* raw = flow.get();
  raw->onComplete = [this](const BulkTransfer::Result& r) {
    ++stats_.flowsCompleted;
    stats_.bytesCompleted += r.bytes;
  };
  raw->start();
  ++stats_.flowsStarted;
  active_.push_back(std::move(flow));
  reap();
}

void BackgroundTraffic::reap() {
  // Completed transfers release their listeners and timers eagerly so the
  // generator can run for long simulated spans without growing.
  std::erase_if(active_, [](const std::unique_ptr<BulkTransfer>& t) { return t->finished(); });
}

}  // namespace scidmz::apps
