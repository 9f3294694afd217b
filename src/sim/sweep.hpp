// Parallel scenario-sweep runner.
//
// A sweep is a grid of independent scenario cells — one (parameters →
// result) evaluation each, every cell owning its own Simulator, Rng, and
// Topology. Cells share no mutable state, so a sweep's per-cell results are
// bit-identical whether it runs on 1 worker or N: the runner only changes
// *when* a cell executes, never *what* it computes, and results land in
// submission-ordered slots regardless of completion order.
//
// Worker count: explicit constructor argument, else the SCIDMZ_SWEEP_THREADS
// environment variable, else std::thread::hardware_concurrency().
//
// Every run records per-cell wall clock and events executed; writeJson()
// emits the accumulated history as a BENCH_sim.json-style summary so the
// perf trajectory of the figure benches is tracked across PRs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace scidmz::sim {

/// Per-cell execution report.
struct SweepCellStats {
  double wallSeconds = 0.0;
  std::uint64_t eventsExecuted = 0;
  /// Packets successfully forwarded through the data path (one count per
  /// Device::forward hop) — the numerator of the packets/sec column.
  std::uint64_t packetsForwarded = 0;
  /// Flows created through net::FlowFactory — the numerator of the
  /// flows/sec model-throughput column (the hybrid-fidelity headline).
  std::uint64_t flowsCreated = 0;
  /// Spans opened by the cell's telemetry::Tracer; 0 when tracing was off.
  std::uint64_t spansEmitted = 0;
  /// Size of the scidmz.snap.v1 blob the cell saved or restored; 0 when the
  /// cell did not touch the snapshot seam.
  std::uint64_t snapshotBytes = 0;
  /// Pre-serialized telemetry snapshot (scidmz.telemetry.v1 JSON), empty
  /// when the cell did not instrument itself. Opaque to the runner — sim
  /// stays independent of the telemetry layer.
  std::string telemetryJson;
  /// Execution domains the cell ran across (1 = single-threaded scenario).
  std::uint32_t domains = 1;
  /// Per-domain events executed when the cell ran sharded (sums to
  /// eventsExecuted); empty for unsharded cells.
  std::vector<std::uint64_t> domainEvents;
  /// Per-domain host seconds in epochs and out of them (barrier waits and
  /// the step between epochs) for sharded cells; empty otherwise.
  std::vector<double> domainBusySeconds;
  std::vector<double> domainWaitSeconds;
};

/// One run() call's report.
struct SweepRunStats {
  std::string name;
  int workers = 0;
  double wallSeconds = 0.0;
  std::vector<SweepCellStats> cells;

  [[nodiscard]] std::uint64_t totalEvents() const {
    std::uint64_t total = 0;
    for (const auto& c : cells) total += c.eventsExecuted;
    return total;
  }
  [[nodiscard]] std::uint64_t totalPackets() const {
    std::uint64_t total = 0;
    for (const auto& c : cells) total += c.packetsForwarded;
    return total;
  }
  [[nodiscard]] std::uint64_t totalFlows() const {
    std::uint64_t total = 0;
    for (const auto& c : cells) total += c.flowsCreated;
    return total;
  }
  [[nodiscard]] std::uint64_t totalSpans() const {
    std::uint64_t total = 0;
    for (const auto& c : cells) total += c.spansEmitted;
    return total;
  }
  [[nodiscard]] std::uint64_t totalSnapshotBytes() const {
    std::uint64_t total = 0;
    for (const auto& c : cells) total += c.snapshotBytes;
    return total;
  }
  /// Sum of per-cell wall clock — the serial-equivalent cost; divided by
  /// wallSeconds it is the realized parallel speedup.
  [[nodiscard]] double cellSecondsSum() const {
    double total = 0;
    for (const auto& c : cells) total += c.wallSeconds;
    return total;
  }
};

/// Handed to each cell body: identifies the cell and carries stats back.
struct SweepCell {
  std::size_t index = 0;
  /// Cell sets this (typically Simulator::eventsExecuted()) before returning.
  std::uint64_t eventsExecuted = 0;
  /// Cell sets this (typically Context::packetsForwarded()) before
  /// returning; reported as the packets/sec datapath-throughput column.
  std::uint64_t packetsForwarded = 0;
  /// Cell sets this (typically FlowFactory::flowsCreated()) before
  /// returning; reported as the flows/sec model-throughput column.
  std::uint64_t flowsCreated = 0;
  /// Cell sets this to its tracer's spansEmitted() when tracing is on;
  /// reported as the spans_emitted column.
  std::uint64_t spansEmitted = 0;
  /// Cell sets this to the scidmz.snap.v1 blob size it saved or restored;
  /// reported as the snapshot_bytes column.
  std::uint64_t snapshotBytes = 0;
  /// Cell may set this to its telemetry snapshot JSON
  /// (Telemetry::snapshot().toJson()); merged into BENCH_sim.json per cell.
  std::string telemetryJson;
  /// Execution domains (sharded scenarios set this to their --domains).
  std::uint32_t domains = 1;
  /// Per-domain events executed for sharded cells (empty otherwise).
  std::vector<std::uint64_t> domainEvents;
  /// Per-domain host seconds busy in epochs / waiting outside them, for
  /// sharded cells (empty otherwise).
  std::vector<double> domainBusySeconds;
  std::vector<double> domainWaitSeconds;
};

/// Fixed-size worker pool executing scenario cells.
class SweepRunner {
 public:
  /// `workers` <= 0 selects defaultWorkers(). The pool threads persist for
  /// the runner's lifetime and sleep between runs.
  explicit SweepRunner(int workers = 0);
  ~SweepRunner();
  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// SCIDMZ_SWEEP_THREADS if set to a positive integer, else hardware
  /// concurrency (at least 1).
  [[nodiscard]] static int defaultWorkers();

  [[nodiscard]] int workers() const { return workers_; }

  /// Execute `cellCount` cells of `cellFn` (signature `R(SweepCell&)`) and
  /// return their results in submission order. Blocks until the whole grid
  /// is done. If any cell throws, the lowest-index exception is rethrown
  /// here after all cells finish. R must be default-constructible.
  template <typename R, typename F>
  std::vector<R> run(std::size_t cellCount, F cellFn, std::string name = "sweep") {
    std::vector<R> results(cellCount);
    dispatch(
        cellCount, [&results, &cellFn](SweepCell& cell) { results[cell.index] = cellFn(cell); },
        std::move(name));
    return results;
  }

  /// All runs executed so far, in order.
  [[nodiscard]] const std::vector<SweepRunStats>& history() const { return history_; }
  [[nodiscard]] const SweepRunStats& lastRun() const { return history_.back(); }

  /// Write the run history as JSON. Returns false if the file can't be
  /// opened. Format documented in EXPERIMENTS.md ("BENCH_sim.json").
  bool writeJson(const std::string& benchName, const std::string& path) const;

 private:
  void dispatch(std::size_t cellCount, const std::function<void(SweepCell&)>& body,
                std::string name);

  struct Pool;
  int workers_ = 1;
  std::unique_ptr<Pool> pool_;
  std::vector<SweepRunStats> history_;
};

}  // namespace scidmz::sim
