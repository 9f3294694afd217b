// Scenario-level wiring for the observability layer: where traces and
// profiles come out of a run.
//
// Process options (set once at startup by `scidmz_run --trace=<base>` /
// `--profile=<base>`, or by calling setTraceOutput/setProfileOutput) select
// the artifacts; every sweep cell then writes its own files from
// finishCell():
//   <base>.cell<N>.trace.json   — the cell's spans as Chrome trace events
//                                 (open in Perfetto) with the
//                                 scidmz.spans.v2 header in "otherData"
//                                 (tools/validate_trace.py)
//   <base>.cell<N>.profile.json — scidmz.profile.v1 self-profile
// Cells run on sweep worker threads, so per-cell files (never a shared
// stream) keep output deterministic and lock-free; byte-identical at any
// SCIDMZ_SWEEP_THREADS (the profile's host-time section excepted).
//
// printCriticalPathReport() is the `scidmz_run report` backend: it reads
// those trace.json files back and prints, per flow/transfer root span, where the
// time went (handshake / slow_start / cwnd_limited / rwnd_limited /
// queue_limited / loss_recovery / storage) — the paper's "why is my
// transfer slow" diagnosis as a table.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/harness.hpp"
#include "sim/sweep.hpp"

namespace scidmz::scenario {

/// Select trace output and enable tracing process-wide (empty base = trace
/// without writing files). Call before any simulation runs.
void setTraceOutput(const std::string& base);
/// Select profile output and enable profiling process-wide (empty base =
/// profile without writing files).
void setProfileOutput(const std::string& base);

/// Profiling requested for this process?
[[nodiscard]] bool profilingRequested();
/// Output base path for each artifact ("" = requested without file output,
/// or not requested at all).
[[nodiscard]] std::string traceOutputBase();
[[nodiscard]] std::string profileOutputBase();

/// End-of-cell hook (called from finishCell): correlate the cell's spans
/// with its flight recorder, stamp allocator high-water marks into the
/// profiler, record cell.spansEmitted, and write the per-cell artifacts if
/// output bases are set.
void writeCellObservability(Scenario& s, sim::SweepCell& cell);

/// Read trace.json files and print per-root critical-path breakdowns plus
/// an aggregate phase table to `out`. Returns false, after one line on
/// `err` naming the file (and the event, if one is malformed), when any
/// file cannot be read; nothing is printed to `out` then.
bool printCriticalPathReport(const std::vector<std::string>& files, std::ostream& out,
                             std::ostream& err);

}  // namespace scidmz::scenario
