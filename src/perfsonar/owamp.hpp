// OWAMP-style one-way active measurement (RFC 4656 in spirit): a stream of
// small timestamped UDP probes at a fixed rate. This is the tool that
// catches the paper's Section 2 failing line card — loss rates far below
// anything SNMP error counters or throughput graphs reveal.
//
// Loss semantics follow the real tool: a probe counts as lost only once it
// is `lossTimeout` overdue, so queueing delay (e.g. a TCP test inflating a
// shared buffer) shows up as delay, not as phantom loss.
#pragma once

#include <cstdint>
#include <vector>

#include "net/host.hpp"
#include "sim/stats.hpp"
#include "telemetry/span.hpp"

namespace scidmz::perfsonar {

struct OwampReport {
  std::uint64_t sent = 0;      ///< Probes past the loss-timeout horizon.
  std::uint64_t received = 0;  ///< Of those, how many arrived.
  double lossFraction = 0.0;
  sim::Duration minDelay = sim::Duration::zero();
  sim::Duration meanDelay = sim::Duration::zero();
  sim::Duration maxDelay = sim::Duration::zero();
};

/// Probe stream configuration (namespace scope so it can be a defaulted
/// argument; GCC cannot evaluate a nested class's member initializers in
/// the enclosing class's default arguments).
struct OwampOptions {
  sim::Duration interval = sim::Duration::milliseconds(100);  // 10 pps
  sim::DataSize probeSize = sim::DataSize::bytes(50);
  std::uint16_t port = 861;  // OWAMP's IANA port
  /// A probe not seen this long after transmission is declared lost.
  sim::Duration lossTimeout = sim::Duration::seconds(2);
};

/// A continuous one-way probe stream from `src` to `dst`. Owns both the
/// sending schedule and the receiving sink.
class OwampStream {
 public:
  using Options = OwampOptions;

  OwampStream(net::Host& src, net::Host& dst, Options options = OwampOptions());
  ~OwampStream();

  OwampStream(const OwampStream&) = delete;
  OwampStream& operator=(const OwampStream&) = delete;

  void start();
  void stop();

  /// Cumulative statistics over all probes that are past the loss-timeout
  /// horizon at the time of the call.
  [[nodiscard]] OwampReport report() const;

  /// Delta report covering the probes that crossed the loss-timeout
  /// horizon since the previous call — the shape regular monitoring
  /// consumes (one row per measurement interval).
  [[nodiscard]] OwampReport intervalReport();

  /// Raw counters (no timeout accounting).
  [[nodiscard]] std::uint64_t probesSent() const { return sent_times_.size(); }

 private:
  class Receiver : public net::PacketSink {
   public:
    explicit Receiver(net::Host& host) : host_(host) {}
    void onPacket(const net::Packet& packet) override;
    net::Host& host_;
    std::uint32_t stream_id_ = 0;
    std::vector<bool> got_;
    sim::RunningStats delaySeconds_;
  };

  void sendProbe();
  /// Count of probes sent at or before `cutoff`, and how many arrived.
  struct HorizonCounts {
    std::uint64_t due = 0;
    std::uint64_t arrived = 0;
  };
  [[nodiscard]] HorizonCounts countsAtHorizon(sim::SimTime now) const;

  net::Host& src_;
  net::Host& dst_;
  Options options_;
  Receiver receiver_;
  std::uint32_t stream_id_;
  bool running_ = false;
  sim::EventId timer_{};
  std::vector<sim::SimTime> sent_times_;
  HorizonCounts last_snapshot_;
  /// Root "owamp.session" span over the probing window (tracing only).
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::SpanId span_{};
};

}  // namespace scidmz::perfsonar
