// Event-loop self-profiler: where does the simulator's *host* time go, and
// how loaded are its data structures, while a scenario runs?
//
// A Profiler is attached to a Simulator (Simulator::setProfiler); the hot
// loop then wraps every callback in beginEvent()/endEvent(). Detached — the
// default — the loop takes a single perfectly-predicted nullptr branch and
// executes the callback directly, so disabled cost is zero; the A/B pair in
// bench/micro_simulator plus the perf.yml ratchet hold that line.
//
// What it records, per attached simulator:
//   - execute counts per event source. The loop itself distinguishes plain
//     vs daemon events and names each timer fire by its Timer::source
//     (net.link, net.tx, net.firewall, net.switch); instrumented subsystems
//     (telemetry tick, fluid engine tick) refine the attribution by calling
//     setSource("...") from inside their callbacks.
//   - host-time latency histograms, log2 (power-of-two) bucketed: bucket k
//     counts callbacks whose wall duration was in [2^(k-1), 2^k) ns
//     (bucket index = bit_width of the nanosecond count).
//   - event-queue occupancy: heap + timing-wheel population sampled every
//     1024th event (log2 histogram + maxima), plus scheduled totals.
//
// Determinism: counts and occupancy derive only from the event stream, so
// they are byte-identical across SCIDMZ_SWEEP_THREADS; wall-clock latency
// buckets are inherently host-dependent and are exported under a separate
// "host" object that determinism diffs ignore (see tools/validate_trace.py).
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace scidmz::sim {

class Profiler {
 public:
  static constexpr std::size_t kLatencyBuckets = 40;   ///< 2^0 .. 2^39 ns (~0.5 s)
  static constexpr std::size_t kOccupancyBuckets = 28; ///< up to 2^27 pending events
  static constexpr std::uint64_t kOccupancySampleMask = 1023;  ///< sample every 1024th event

  struct SourceStats {
    std::uint64_t count = 0;
    std::uint64_t totalHostNs = 0;
    std::array<std::uint64_t, kLatencyBuckets> latency{};
  };

  /// Called by the simulator loop immediately before an event callback.
  void beginEvent() {
    source_ = nullptr;
    daemon_ = false;
    t0_ = std::chrono::steady_clock::now();
  }

  /// Instrumented callbacks self-identify ("telemetry.tick", "fluid.tick"),
  /// the loop names timer fires ("net.link", ...); uncategorized events
  /// land under "event" / "daemon".
  void setSource(const char* name) { source_ = name; }
  /// The scheduleDaemon wrapper marks daemon events before dispatch.
  void noteDaemonEvent() { daemon_ = true; }

  /// Called by the simulator loop after the callback returns, with the
  /// queue's current population split (heap `pending` includes parked).
  void endEvent(std::size_t pending, std::size_t parked) {
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             t0_)
            .count());
    SourceStats& stats = sources_[source_ != nullptr ? source_ : (daemon_ ? "daemon" : "event")];
    ++stats.count;
    stats.totalHostNs += ns;
    ++stats.latency[bucketOf(ns, kLatencyBuckets)];
    ++events_;
    if ((events_ & kOccupancySampleMask) == 0) {
      ++occupancy_samples_;
      ++occupancy_[bucketOf(static_cast<std::uint64_t>(pending), kOccupancyBuckets)];
      if (pending > max_pending_) max_pending_ = pending;
      if (parked > max_parked_) max_parked_ = parked;
    }
  }

  /// Allocator high-water marks, stamped by the owner at export time (the
  /// profiler lives in sim and cannot see net::PacketPool / the arena).
  void setHighWater(const std::string& name, std::uint64_t value) {
    high_water_[name] = value;
  }

  [[nodiscard]] std::uint64_t eventsProfiled() const { return events_; }
  [[nodiscard]] const std::map<std::string, SourceStats>& sources() const { return sources_; }
  [[nodiscard]] std::size_t maxPending() const { return max_pending_; }
  [[nodiscard]] std::size_t maxParked() const { return max_parked_; }

  /// scidmz.profile.v1: deterministic fields (counts, occupancy, high-water
  /// marks) at the top level; wall-clock-derived data confined to "host".
  void exportJson(std::ostream& out) const {
    out << "{\n  \"schema\": \"scidmz.profile.v1\",\n";
    out << "  \"events_profiled\": " << events_ << ",\n";
    out << "  \"sources\": {";
    bool first = true;
    for (const auto& [name, stats] : sources_) {
      out << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": " << stats.count
          << "}";
      first = false;
    }
    out << (first ? "" : "\n  ") << "},\n";
    out << "  \"occupancy\": {\"samples\": " << occupancy_samples_
        << ", \"max_pending\": " << max_pending_ << ", \"max_parked\": " << max_parked_
        << ", \"log2_pending\": [";
    for (std::size_t i = 0; i < kOccupancyBuckets; ++i)
      out << (i == 0 ? "" : ", ") << occupancy_[i];
    out << "]},\n";
    out << "  \"high_water\": {";
    first = true;
    for (const auto& [name, value] : high_water_) {
      out << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
      first = false;
    }
    out << (first ? "" : "\n  ") << "},\n";
    // Host-time data below this point is machine-dependent by nature:
    // determinism checks must ignore the "host" object.
    out << "  \"host\": {\n    \"sources\": {";
    first = true;
    for (const auto& [name, stats] : sources_) {
      out << (first ? "\n" : ",\n") << "      \"" << name
          << "\": {\"total_ns\": " << stats.totalHostNs << ", \"latency_log2_ns\": [";
      for (std::size_t i = 0; i < kLatencyBuckets; ++i)
        out << (i == 0 ? "" : ", ") << stats.latency[i];
      out << "]}";
      first = false;
    }
    out << (first ? "" : "\n    ") << "}\n  }\n}\n";
  }

 private:
  static std::size_t bucketOf(std::uint64_t v, std::size_t buckets) {
    const std::size_t b = static_cast<std::size_t>(std::bit_width(v));  // 0 -> 0, 1 -> 1, ...
    return b < buckets ? b : buckets - 1;
  }

  std::map<std::string, SourceStats> sources_;
  std::array<std::uint64_t, kOccupancyBuckets> occupancy_{};
  std::map<std::string, std::uint64_t> high_water_;
  std::chrono::steady_clock::time_point t0_{};
  const char* source_ = nullptr;
  bool daemon_ = false;
  std::uint64_t events_ = 0;
  std::uint64_t occupancy_samples_ = 0;
  std::size_t max_pending_ = 0;
  std::size_t max_parked_ = 0;
};

}  // namespace scidmz::sim
