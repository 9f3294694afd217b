// Simulation bootstrap shared by the scenario engine and the catalog
// renderers: one Scenario owns the simulator/rng/context/topology
// for a single cell, SteadyFlow measures one bulk TCP flow's steady-state
// goodput, and finishCell() does the standard end-of-cell sweep
// bookkeeping. Benches, the scenario engine and scidmz_run share it.
#pragma once

#include <cstdint>
#include <memory>

#include "net/flow.hpp"
#include "net/topology.hpp"
#include "sim/profiler.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "tcp/connection.hpp"

namespace scidmz::scenario {

// Defined in observability.cpp; forward-declared here so the harness header
// does not pull in the observability header (which includes this one).
struct Scenario;
[[nodiscard]] bool profilingRequested();
void writeCellObservability(Scenario& s, sim::SweepCell& cell);

// Sharded-execution runtime (per-domain simulators/contexts + the
// ShardedSimulator); defined in scenario/shard.hpp. A plain Scenario never
// creates one — attachShards() (the engine's --domains path) does.
struct ShardRuntime;

struct Scenario {
  Scenario() { attachProfiler(); }
  explicit Scenario(std::uint64_t seed) : rng(seed) { attachProfiler(); }

  sim::Profiler profiler;  ///< attached iff profiling was requested
  sim::Simulator simulator;
  sim::Rng rng{20130101};
  net::Context ctx{simulator, rng};
  // Declared between ctx and topo so teardown runs topo (devices, links,
  // queued and staged packets) -> extra domain contexts -> the primary
  // context: a domain's lines and queues hold handles into other domains'
  // pools, so all of them go before any pool does.
  std::shared_ptr<ShardRuntime> shards;
  net::Topology topo{ctx};

  /// Advance simulated time: the sharded barrier-epoch driver when shards
  /// are attached, the plain single simulator otherwise. Workloads and
  /// measurement loops must use this instead of simulator.runFor so the
  /// same scenario code runs at any --domains. Defined in shard.cpp.
  void runFor(sim::Duration d);
  [[nodiscard]] bool sharded() const { return shards != nullptr; }

 private:
  void attachProfiler() {
    if (profilingRequested()) simulator.setProfiler(&profiler);
  }
};

/// Standard end-of-cell bookkeeping: record events executed and, when the
/// scenario instrumented itself (SCIDMZ_TELEMETRY=1 or an explicit
/// enable()), attach the telemetry snapshot so writeSweepReport() merges it
/// into the cell's BENCH_sim.json entry. When tracing/profiling is on,
/// writeCellObservability() additionally correlates spans with the flight
/// recorder, records spansEmitted, and writes per-cell trace/profile files.
/// Sharded scenarios merge per-domain counters/telemetry/spans into
/// partition-invariant cell results. Defined in shard.cpp.
void finishCell(Scenario& s, sim::SweepCell& cell);

/// Steady-state goodput of one bulk TCP flow between two hosts: start an
/// effectively infinite transfer, discard `warmup`, measure `window`.
struct SteadyFlow {
  SteadyFlow(Scenario& s, net::Host& src, net::Host& dst, tcp::TcpConfig config,
             std::uint16_t port = 5001,
             net::FlowFidelity fidelity = net::FlowFidelity::kPacket)
      : scenario(s) {
    net::FlowFactory::Options options;
    options.port = port;
    options.fidelity = fidelity;
    flow = net::flowFactory(src.ctx()).create(src, dst, config, options);
    // Accept (not client-side establishment) is the pin signal, preserving
    // the historical "listener has accepted" semantics at packet fidelity;
    // fluid flows fire onAccepted at establishment.
    flow->onAccepted = [this](int) { accepted_ = true; };
    flow->onEstablished = [this] { flow->sendData(sim::DataSize::terabytes(100)); };
    flow->start();
  }

  /// Receiver-side goodput over `window` after discarding `warmup`. The
  /// connection is pinned at the start of the window: if the listener has
  /// not accepted by then the measurement is meaningless, so this returns
  /// zero and flips established() false rather than silently measuring a
  /// flow that only appeared (or never appeared) mid-window off a zero base.
  [[nodiscard]] sim::DataRate measure(sim::Duration warmup, sim::Duration window) {
    scenario.runFor(warmup);
    established_ = accepted_;
    const auto base = accepted_ ? flow->deliveredBytes() : sim::DataSize::zero();
    scenario.runFor(window);
    if (!established_) return sim::DataRate::zero();
    const auto delta = flow->deliveredBytes() - base;
    return sim::DataRate::bitsPerSecond(static_cast<std::uint64_t>(
        static_cast<double>(delta.bitCount()) / window.toSeconds()));
  }

  /// False when the flow had not established by the start of the last
  /// measure() window — surface as "n/e" in bench tables via mbpsCell().
  [[nodiscard]] bool established() const { return established_; }

  Scenario& scenario;
  net::FlowPtr flow;
  bool accepted_ = false;
  bool established_ = true;
};

}  // namespace scidmz::scenario
