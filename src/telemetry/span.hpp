// Causal span tracing: a per-scenario record of *why* a transfer spent its
// time, the observability counterpart to the flight recorder's *what*.
//
// A Tracer lives per net::Context (reached via ctx.extension<Tracer>()), so
// every sweep cell traces itself independently and traces are byte-identical
// at any SCIDMZ_SWEEP_THREADS: span ids are minted from a context-scoped
// counter, timestamps are simulated time, and no wall clock is consulted
// anywhere. Disabled by default — every emit site guards on enabled() (one
// predictable bool load) and pays nothing else.
//
// The span tree mirrors the transfer stack: root spans for flows (opened by
// net::FlowFactory at creation, packet and fluid fidelity alike), transfers
// (apps::TransferManager, dtn::DtnTransfer) and perfSONAR sessions
// (owamp/bwctl); child spans for TCP phases (handshake, slow-start,
// cwnd-limited, rwnd-limited, loss-recovery) and per-episode loss recovery.
// Root flow spans carry a correlation key (src/dst address) so
// correlate() can annotate them post-hoc from the FlightRecorder: drops,
// link loss, retransmits and peak queue residency within the span's window.
//
// One deterministic exporter, exportChromeTrace: Chrome trace-event JSON
// ("X" complete events, sim-time microseconds with three decimals, so every
// nanosecond survives), loadable directly in Perfetto, where each root span
// renders as its own track. A child's args name its "parent" span, and a
// top-level "otherData" object carries the scidmz.spans.v2 header (cell,
// span and open counts, export time) that `scidmz_run report` and
// tools/validate_trace.py read. Spans still open at export time are closed
// virtually at the export timestamp and marked "open": true.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/codec.hpp"
#include "sim/units.hpp"
#include "telemetry/flight_recorder.hpp"

namespace scidmz::telemetry {

/// The "otherData.schema" of exportChromeTrace's documents, which
/// `scidmz_run report` checks before reading one back.
inline constexpr std::string_view kSpanTraceSchema = "scidmz.spans.v2";

/// Handle to one span; value 0 is "no span" (also "no parent").
struct SpanId {
  std::uint32_t value = 0;
  constexpr bool operator==(const SpanId&) const = default;
  [[nodiscard]] constexpr bool valid() const { return value != 0; }
};

class Tracer {
 public:
  /// A new tracer starts enabled iff the process-wide flag is set (see
  /// setProcessTracingEnabled below, flipped by `scidmz_run --trace`).
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span at simulated time `at`. Parent must be unset or a span
  /// from this tracer. Categories are dotted slugs ("flow", "tcp.phase",
  /// "transfer", "perfsonar"); the report tooling keys off them.
  [[nodiscard]] SpanId begin(sim::SimTime at, std::string name, std::string category,
                             SpanId parent = {});
  /// Close a span. Closing an invalid/already-closed id is a no-op, so
  /// teardown paths need not track open state.
  void end(SpanId id, sim::SimTime at);
  [[nodiscard]] bool isOpen(SpanId id) const;

  /// Attach a key/value argument. Values land in the span's "args" object;
  /// the string form is emitted as a JSON string, the numeric forms as
  /// numbers. No-ops on invalid ids.
  void annotate(SpanId id, std::string_view key, std::string_view value);
  void annotate(SpanId id, std::string_view key, std::uint64_t value);
  void annotate(SpanId id, std::string_view key, double value);

  /// Add an incrementable numeric argument (creates at `delta` if absent).
  void bump(SpanId id, std::string_view key, std::uint64_t delta);

  /// Mark a span as correlatable with flight-recorder traffic between the
  /// two addresses (either direction). correlate() fills in the counts.
  void setCorrelationKey(SpanId id, std::uint32_t srcAddr, std::uint32_t dstAddr);

  /// Post-hoc annotation from the flight recorder: for every span with a
  /// correlation key, count drops / link losses / retransmits and the peak
  /// queue depth among matching-flow events inside the span's [t0, t1|now]
  /// window. Idempotent per span (keyed spans are correlated once).
  void correlate(const FlightRecorder& recorder, sim::SimTime now);
  /// Same, accumulating across several recorders before annotating — the
  /// sharded path, where a flow's hops record into per-domain rings. The
  /// union of the rings is partition-invariant (absent overflow), so the
  /// appended counts match a single-ring run.
  void correlate(const std::vector<const FlightRecorder*>& recorders, sim::SimTime now);

  /// Spans opened over the tracer's lifetime (the BENCH_sim.json
  /// spans_emitted column); ids run 1..spansEmitted().
  [[nodiscard]] std::uint64_t spansEmitted() const { return static_cast<std::uint64_t>(spans_.size()); }
  [[nodiscard]] std::size_t openCount() const { return open_count_; }

  struct Span {
    std::string name;
    std::string category;
    std::uint32_t parent = 0;  ///< SpanId value; 0 = root.
    sim::SimTime t0;
    sim::SimTime t1;
    bool open = true;
    // Flight-recorder correlation (address pair; 0/0 = none).
    std::uint32_t corrSrc = 0;
    std::uint32_t corrDst = 0;
    bool correlated = false;
    /// Key → pre-serialized JSON value (insertion-ordered, deterministic).
    std::vector<std::pair<std::string, std::string>> args;
  };
  [[nodiscard]] const Span* find(SpanId id) const;
  template <typename F>
  void forEachSpan(F&& fn) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) fn(SpanId{static_cast<std::uint32_t>(i + 1)}, spans_[i]);
  }

  /// Deterministically merge per-domain tracers into this (empty) tracer:
  /// root spans are ordered by (t0, name, args, correlation key) — a total
  /// order for the catalog's flows, whose roots carry a unique port — and
  /// each root's subtree follows in its domain's creation order, ids
  /// renumbered. The result is partition-invariant: the same set of spans
  /// merges to the same bytes at any domain count.
  void mergeFrom(const std::vector<const Tracer*>& parts);

  /// Snapshot/restore of the full span table (scidmz.snap.v1 TRC section).
  /// Claims no pending events — the tracer is passive state.
  void serialize(sim::Codec& c);

  /// Chrome trace-event JSON (Perfetto-loadable), one track per root span,
  /// with the scidmz.spans.v2 header in "otherData" naming sweep `cell`.
  void exportChromeTrace(std::ostream& out, sim::SimTime now, std::size_t cell = 0) const;

 private:
  [[nodiscard]] Span* mutableSpan(SpanId id);
  /// Index of the root ancestor of span i (0-based), for track grouping.
  [[nodiscard]] std::size_t rootOf(std::size_t i) const;

  bool enabled_ = false;
  std::vector<Span> spans_;  ///< SpanId value = index + 1.
  std::size_t open_count_ = 0;
};

/// Process-wide tracing switch (`scidmz_run --trace=...`): every Tracer
/// default-constructed afterwards starts enabled. Set once at startup,
/// before any simulation runs; sweep workers read it without
/// synchronization, so never flip it mid-run.
void setProcessTracingEnabled(bool enabled);

}  // namespace scidmz::telemetry
