// Snapshot/restore orchestrator: one versioned blob ("scidmz.snap.v1")
// holding the full dynamic state of a scenario — clock + event keys, rng,
// context counters, device/link/queue state, TCP and fluid flow state, and
// the telemetry hub.
//
// Restore is rebuild-then-overlay (closures cannot cross a serialization
// boundary): the caller first reconstructs the scenario *identically in
// code* — same topology, same flows, same construction order — then
// restoreSnapshot() resets the clock/sequence numbering and each component
// re-arms its pending events under their original (time, sequence) keys.
// Pop order is strictly (time, seq), so the restored run is byte-identical
// to the uninterrupted one at any SCIDMZ_SWEEP_THREADS.
//
// The format is self-validating: every component reports how many pending
// events it claimed, and a snapshot whose claimed total does not match the
// simulator's live-event count is REFUSED — loudly, with an error — rather
// than silently dropping events it cannot re-materialize. Scenario-level
// closures snapshot when registered by name (scenario::CallbackRegistry),
// and span tracing rides along as the SPAN overlay. Refused today, via
// that accounting: unregistered scenario closures, the DTN storage pump,
// perfSONAR probe schedulers, and vc/circuit timers. Section CRCs refuse a
// corrupted blob before anything decodes it. See DESIGN.md "State &
// serialization".
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace scidmz::sim {
class Simulator;
class Rng;
}  // namespace scidmz::sim

namespace scidmz::net {
class Context;
class Topology;
}  // namespace scidmz::net

namespace scidmz::scenario {

struct Scenario;

inline constexpr const char* kSnapshotMagic = "scidmz.snap.v1";

/// Result of saveSnapshot(): the blob, or a human-readable refusal.
struct SnapshotBlob {
  std::vector<std::uint8_t> bytes;
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Serialize a scenario's dynamic state. Refuses — with error set — when
/// any pending event is not owned by a serializable component.
[[nodiscard]] SnapshotBlob saveSnapshot(sim::Simulator& sim, sim::Rng& rng,
                                        net::Context& ctx, net::Topology& topo);

/// Overlay a snapshot onto an identically rebuilt scenario. On success the
/// simulator's clock, event queue, rng and every component's state match
/// the snapshotting run exactly; continuing the run reproduces its bytes.
/// On failure (format or checksum mismatch, trailing bytes, rebuild
/// divergence, event accounting mismatch) returns false with *error
/// describing the refusal. A blob refused before its BODY is decoded
/// leaves the target untouched; later refusals leave it in an
/// indeterminate state, and it must be discarded.
[[nodiscard]] bool restoreSnapshot(sim::Simulator& sim, sim::Rng& rng, net::Context& ctx,
                                   net::Topology& topo, const std::uint8_t* data,
                                   std::size_t size, std::string* error = nullptr);

// Harness conveniences (Scenario bundles the four components).
[[nodiscard]] SnapshotBlob saveSnapshot(Scenario& s);
[[nodiscard]] bool restoreSnapshot(Scenario& s, const std::vector<std::uint8_t>& blob,
                                   std::string* error = nullptr);

/// File wrappers for the scidmz_run --snapshot/--restore flags.
[[nodiscard]] bool saveSnapshotFile(Scenario& s, const std::string& path,
                                    std::string* error = nullptr);
[[nodiscard]] bool restoreSnapshotFile(Scenario& s, const std::string& path,
                                       std::string* error = nullptr);

/// The canonical snapshot-compatible cell shared by `scidmz_run --snapshot/
/// --restore` and bench/micro_snapshot: a 1 Gbps two-hop path with a
/// periodic-loss egress hop, one per-packet and one fluid 48 MB flow,
/// telemetry on. Deterministic construction — building two
/// cells yields the identical rebuild the restore protocol requires.
class DemoCell {
 public:
  DemoCell();
  ~DemoCell();
  DemoCell(const DemoCell&) = delete;
  DemoCell& operator=(const DemoCell&) = delete;

  [[nodiscard]] Scenario& scenario() { return *scenario_; }
  /// Deterministic per-flow summary table (delivered/acked/retransmits plus
  /// clock and event accounting) — byte-identical between an uninterrupted
  /// run and a restored continuation.
  [[nodiscard]] std::string table() const;

 private:
  struct State;
  // Order matters: flows (in State) hold handles into the scenario's
  // context and must be destroyed first, so scenario_ is declared first.
  std::unique_ptr<Scenario> scenario_;
  std::unique_ptr<State> state_;
};

}  // namespace scidmz::scenario
