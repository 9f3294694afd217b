// Packet-level flight recorder: a bounded ring of enqueue/dequeue/drop/
// loss/retransmit events, deterministic by construction (simulated time
// only, ids minted by the scenario).
//
// Emit points intern their location once ("dtn0/if0", "fw0/input") and
// record fixed-size POD events; when the ring is full the oldest events
// are overwritten and counted, never silently lost. Runs write the retained
// window as scidmz.frbin.v1; exportJsonl() streams it in chronological
// order as JSONL (one event per line, schema scidmz.trace.v1 — see
// EXPERIMENTS.md), the `scidmz_run convert` output.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/codec.hpp"
#include "sim/units.hpp"

namespace scidmz::telemetry {

enum class FlightEventKind : std::uint8_t {
  kEnqueue,     ///< Packet accepted into an egress queue; aux2 = depth after.
  kDequeue,     ///< Packet left a queue for the wire; aux2 = depth after.
  kDrop,        ///< Buffer-full (or policy) drop at a device; aux2 = depth.
  kLinkLoss,    ///< Impairment model dropped the packet on the wire.
  kRetransmit,  ///< TCP sender retransmitted; aux = sequence number.
  kDeliver,     ///< Packet delivered to the far end of a link.
};

[[nodiscard]] std::string_view toString(FlightEventKind kind);

/// Flow identity flattened to PODs so telemetry does not depend on net.
/// `proto` uses IANA numbers (6 = TCP, 17 = UDP).
struct FlowRef {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint16_t srcPort = 0;
  std::uint16_t dstPort = 0;
  std::uint8_t proto = 0;
};

struct FlightEvent {
  sim::SimTime at;
  std::uint64_t packetId = 0;
  std::uint64_t aux = 0;   ///< Kind-specific (TCP sequence for retransmits).
  std::uint64_t aux2 = 0;  ///< Kind-specific (queue depth in bytes).
  FlowRef flow;
  std::uint32_t bytes = 0;  ///< Wire size of the packet.
  std::uint32_t point = 0;  ///< Interned emit-point id.
  FlightEventKind kind = FlightEventKind::kEnqueue;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 1 << 16);

  /// Register an emit point ("hostA/if0"); idempotent, returns a stable id.
  [[nodiscard]] std::uint32_t internPoint(const std::string& name);
  [[nodiscard]] const std::string& pointName(std::uint32_t id) const;
  [[nodiscard]] std::size_t pointCount() const { return points_.size(); }

  void record(const FlightEvent& event);

  void setCapacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events currently retained in the ring.
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Events recorded over the recorder's lifetime.
  [[nodiscard]] std::uint64_t totalRecorded() const { return total_; }
  /// Events overwritten because the ring wrapped.
  [[nodiscard]] std::uint64_t overwritten() const {
    return total_ - static_cast<std::uint64_t>(ring_.size());
  }

  /// Visit retained events oldest-first.
  template <typename F>
  void forEach(F&& fn) const {
    const std::size_t n = ring_.size();
    for (std::size_t i = 0; i < n; ++i) fn(ring_[(head_ + i) % n]);
  }

  /// Visit retained events with t0 <= at <= t1, oldest-first. Retained
  /// events are chronological (recorded in simulated-time order), so the
  /// scan skips the prefix before t0 and stops at the first event past t1 —
  /// span correlation over many windows stays linear in the ring size.
  template <typename F>
  void forEachInWindow(sim::SimTime t0, sim::SimTime t1, F&& fn) const {
    const std::size_t n = ring_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const FlightEvent& ev = ring_[(head_ + i) % n];
      if (ev.at < t0) continue;
      if (ev.at > t1) break;
      fn(ev);
    }
  }

  /// One JSON object per line; deterministic for a given scenario + seed.
  void exportJsonl(std::ostream& out) const;

  /// Binary export (format scidmz.frbin.v1): the interned point table plus
  /// the retained events oldest-first, bit-packed with delta-encoded
  /// timestamps — typically an order of magnitude smaller than the JSONL.
  void exportBinary(std::ostream& out) const;
  /// Load a scidmz.frbin.v1 blob, replacing the recorder's contents (the
  /// `scidmz_run convert` path to JSONL). False on a malformed, truncated
  /// or corrupted blob (a section CRC mismatch, trailing bytes); the
  /// recorder is cleared either way.
  bool importBinary(std::istream& in);

  /// Snapshot/restore overlay: ring, head, lifetime total, and the interned
  /// point table (replacing the rebuild's table — rebuild-time interning is
  /// a prefix of the snapshot's, so cached ids stay valid).
  void serialize(sim::Codec& c);

  void clear();

 private:
  std::size_t capacity_;
  std::vector<FlightEvent> ring_;
  std::size_t head_ = 0;  ///< Index of the oldest retained event once full.
  std::uint64_t total_ = 0;
  std::vector<std::string> points_;
  std::map<std::string, std::uint32_t> point_index_;
};

}  // namespace scidmz::telemetry
