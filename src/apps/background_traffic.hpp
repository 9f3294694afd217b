// Enterprise background traffic: the "business network" workload general-
// purpose campus infrastructure is built for — many short TCP flows (web,
// mail) arriving as a Poisson process with heavy-tailed sizes.
//
// Used by benches to (a) show firewalls coping fine with this profile while
// collapsing under DTN bursts, and (b) congest shared links in the
// general-purpose-network baseline scenarios.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/bulk_transfer.hpp"
#include "net/host.hpp"
#include "sim/random.hpp"
#include "tcp/connection.hpp"

namespace scidmz::apps {

struct BackgroundProfile {
  /// Poisson flow arrival rate across the whole generator.
  double flowsPerSecond = 50.0;
  /// Pareto shape for flow sizes (1 < alpha <= 2 gives the classic
  /// heavy-tailed web mix).
  double paretoAlpha = 1.3;
  /// Minimum flow size (the Pareto scale parameter).
  sim::DataSize minFlowSize = sim::DataSize::kilobytes(10);
  /// Cap so a single elephant cannot run forever.
  sim::DataSize maxFlowSize = sim::DataSize::megabytes(20);
  /// TCP settings for business hosts (untuned defaults).
  tcp::TcpConfig tcp = tcp::TcpConfig::untunedDefault();
  /// Model fidelity for generated flows. Large fleets of short background
  /// flows are the fluid model's sweet spot (kFluid); kPacket keeps
  /// historical scenarios byte-identical.
  net::FlowFidelity fidelity = net::FlowFidelity::kPacket;
};

/// Generates flows from random clients to random servers until stopped.
class BackgroundTraffic {
 public:
  BackgroundTraffic(net::Context& ctx, std::vector<net::Host*> clients,
                    std::vector<net::Host*> servers, std::uint16_t basePort,
                    BackgroundProfile profile, sim::Rng rng);

  /// Flows listen on basePort .. basePort + kPortBlock - 1, round robin.
  static constexpr int kPortBlock = 512;

  BackgroundTraffic(const BackgroundTraffic&) = delete;
  BackgroundTraffic& operator=(const BackgroundTraffic&) = delete;

  void start();
  void stop();

  struct Stats {
    std::uint64_t flowsStarted = 0;
    std::uint64_t flowsCompleted = 0;
    sim::DataSize bytesCompleted = sim::DataSize::zero();
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void scheduleNextArrival();
  void launchFlow();
  void reap();

  net::Context& ctx_;
  std::vector<net::Host*> clients_;
  std::vector<net::Host*> servers_;
  std::uint16_t base_port_;
  BackgroundProfile profile_;
  sim::Rng rng_;
  bool running_ = false;
  std::uint16_t next_port_offset_ = 0;
  std::vector<std::unique_ptr<BulkTransfer>> active_;
  Stats stats_;
};

}  // namespace scidmz::apps
