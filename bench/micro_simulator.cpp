// Infrastructure microbenchmarks (google-benchmark): the discrete-event
// kernel and the hot per-packet paths that bound how much simulated
// traffic the figure benches can afford.
//
// The BM_EventQueue* benches measure the event queue alone on synthetic
// schedules; the timer benches run the periodic-heavy, irregular-heavy and
// mixed schedules the timing wheel exists for. After the microbenchmarks,
// main() prints the profiler A/B table (mirrored to
// micro_simulator_profiler.table.json) and runs the timer workloads under
// the SweepRunner so BENCH_sim.json gains events_per_second cells CI can
// ratchet (tools/perf_ratchet.py).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/host.hpp"
#include "net/topology.hpp"
#include "scenario/bench_io.hpp"
#include "scenario/harness.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/units.hpp"
#include "tcp/connection.hpp"

using namespace scidmz;
using namespace scidmz::sim::literals;

namespace {

/// Packet-sized capture, what the link/switch/device forwarding events
/// carry; SmallCallback keeps it inline.
struct PacketSizedCapture {
  void* owner = nullptr;
  unsigned char payload[144] = {};
  void operator()() const { benchmark::DoNotOptimize(payload[0]); }
};

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue queue;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.schedule(sim::SimTime::fromNs(t + (i * 7919) % 1000), [] {});
    }
    while (!queue.empty()) {
      auto ev = queue.pop();
      benchmark::DoNotOptimize(ev.at);
    }
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_EventQueuePacketSizedCapture(benchmark::State& state) {
  sim::EventQueue queue;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.schedule(sim::SimTime::fromNs(t + (i * 7919) % 1000), PacketSizedCapture{});
    }
    while (!queue.empty()) {
      auto ev = queue.pop();
      ev.cb();
    }
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePacketSizedCapture);

/// Timer-churn pattern: half of everything scheduled is cancelled before it
/// fires (RTO timers rearmed by every ACK behave like this).
void BM_EventQueueScheduleCancelPop(benchmark::State& state) {
  sim::EventQueue queue;
  std::vector<sim::EventId> ids;
  ids.reserve(64);
  std::int64_t t = 0;
  for (auto _ : state) {
    ids.clear();
    for (int i = 0; i < 64; ++i) {
      ids.push_back(queue.schedule(sim::SimTime::fromNs(t + (i * 7919) % 1000), [] {}));
    }
    for (int i = 0; i < 64; i += 2) queue.cancel(ids[static_cast<std::size_t>(i)]);
    while (!queue.empty()) {
      auto ev = queue.pop();
      benchmark::DoNotOptimize(ev.at);
    }
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleCancelPop);

/// Steady-state churn against a deep heap: the regime the figure benches
/// live in (a single 10G high-BDP flow keeps thousands of packet/timer
/// events in flight).
void BM_EventQueueDeepHeapChurn(benchmark::State& state) {
  sim::EventQueue queue;
  sim::Rng rng{7};
  std::int64_t t = 0;
  for (int i = 0; i < 4096; ++i) {
    queue.schedule(sim::SimTime::fromNs(static_cast<std::int64_t>(rng.below(1 << 20))),
                   PacketSizedCapture{});
  }
  for (auto _ : state) {
    auto ev = queue.pop();
    benchmark::DoNotOptimize(ev.at);
    queue.schedule(sim::SimTime::fromNs(t + static_cast<std::int64_t>(rng.below(1 << 20))),
                   PacketSizedCapture{});
    ++t;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueDeepHeapChurn);

// ---------------------------------------------------------------------------
// Timer schedules: the workloads the timing wheel exists for. A fleet of
// self-rescheduling timers — probe cadences, pacing ticks, RTO rearms —
// with the pop/fire/reschedule loop the Simulator core runs. kPeriodic uses
// fixed per-timer periods (10 us .. 1 ms, the perfSONAR/pacing regime that
// parks in wheel buckets); kIrregular uses fresh sub-microsecond deltas
// (the datapath regime that bypasses the wheel entirely); kMixed is half
// and half.

enum class ScheduleKind { kPeriodic, kIrregular, kMixed };

constexpr const char* kScheduleNames[] = {"periodic", "irregular", "mixed"};

/// Timer i's fixed period in ns, or 0 for an irregular timer.
std::int64_t timerPeriod(ScheduleKind kind, int i) {
  const bool periodic =
      kind == ScheduleKind::kPeriodic || (kind == ScheduleKind::kMixed && i % 2 == 0);
  return periodic ? 10'000 + (static_cast<std::int64_t>(i) * 37'000) % 990'000 : 0;
}

/// The timer fleet on a bare EventQueue: step() is one simulator iteration.
class TimerSchedule {
 public:
  static constexpr int kTimers = 4096;

  explicit TimerSchedule(ScheduleKind kind) : period_(kTimers) {
    for (int i = 0; i < kTimers; ++i) {
      period_[static_cast<std::size_t>(i)] = timerPeriod(kind, i);
      armTimer(i, 0);
    }
  }

  /// One simulator step: pop the due event, fire it, reschedule that timer.
  void step() {
    auto ev = queue_.pop();
    ev.cb();
    armTimer(last_fired_, ev.at.ns());
  }

 private:
  void armTimer(int i, std::int64_t now) {
    const std::int64_t p = period_[static_cast<std::size_t>(i)];
    const std::int64_t delta = p > 0 ? p : 1 + static_cast<std::int64_t>(rng_.below(1000));
    int* last = &last_fired_;
    queue_.schedule(sim::SimTime::fromNs(now + delta), [last, i] { *last = i; });
  }

  sim::EventQueue queue_;
  sim::Rng rng_{11};
  std::vector<std::int64_t> period_;
  int last_fired_ = 0;
};

void timerScheduleLoop(benchmark::State& state, ScheduleKind kind) {
  TimerSchedule timers{kind};
  for (auto _ : state) timers.step();
  state.SetItemsProcessed(state.iterations());
}

void BM_EventQueuePeriodicTimers(benchmark::State& state) {
  timerScheduleLoop(state, ScheduleKind::kPeriodic);
}
BENCHMARK(BM_EventQueuePeriodicTimers);

void BM_EventQueueIrregularTimers(benchmark::State& state) {
  timerScheduleLoop(state, ScheduleKind::kIrregular);
}
BENCHMARK(BM_EventQueueIrregularTimers);

void BM_EventQueueMixedTimers(benchmark::State& state) {
  timerScheduleLoop(state, ScheduleKind::kMixed);
}
BENCHMARK(BM_EventQueueMixedTimers);

void BM_RngNext(benchmark::State& state) {
  sim::Rng rng{1};
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

/// Full packet forwarding: host -> switch -> host probe delivery.
void BM_PacketForwarding(benchmark::State& state) {
  sim::Simulator simulator;
  sim::Rng rng{2};
  net::Context ctx{simulator, rng};
  net::Topology topo{ctx};
  auto& a = topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& sw = topo.addSwitch("sw");
  auto& b = topo.addHost("b", net::Address(10, 0, 0, 2));
  net::LinkParams lp;
  lp.rate = 100_Gbps;
  lp.delay = 1_us;
  topo.connect(a, sw, lp);
  topo.connect(sw, b, lp);
  topo.computeRoutes();

  net::Packet probe;
  probe.flow = net::FlowKey{a.address(), b.address(), 99, 7, net::Protocol::kUdp};
  probe.body = net::ProbeHeader{};
  probe.payload = 1000_B;

  for (auto _ : state) {
    for (int i = 0; i < 100; ++i) a.send(probe);
    simulator.run();
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_PacketForwarding);

/// Sustained TCP at 10G: events per simulated second of a full flow.
void BM_TcpSimulatedSecond(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    sim::Rng rng{3};
    net::Context ctx{simulator, rng};
    net::Topology topo{ctx};
    auto& a = topo.addHost("a", net::Address(10, 0, 0, 1));
    auto& b = topo.addHost("b", net::Address(10, 0, 0, 2));
    net::LinkParams lp;
    lp.rate = 10_Gbps;
    lp.delay = 1_ms;
    lp.mtu = 9000_B;
    topo.connect(a, b, lp);
    topo.computeRoutes();

    tcp::TcpConfig cfg = tcp::TcpConfig::tunedDtn();
    net::FlowFactory::Options options;
    options.port = 5001;
    auto flow = net::flowFactory(ctx).create(a, b, cfg, options);
    auto* raw = flow.get();
    flow->onEstablished = [raw] { raw->sendData(10_GB); };
    flow->start();
    simulator.runFor(1_s);
    benchmark::DoNotOptimize(simulator.eventsExecuted());
  }
}
BENCHMARK(BM_TcpSimulatedSecond)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// The same timer schedules through the REAL Simulator (so daemon
// accounting, clock advance and the wheel all run): 1024 timers that stop
// rescheduling once `events` have fired in total.

struct SimulatorTimerFleet {
  static constexpr int kTimers = 1024;

  sim::Simulator& simulator;
  std::int64_t events;
  sim::Rng rng{23};
  std::vector<std::int64_t> period = std::vector<std::int64_t>(kTimers);
  std::int64_t fired = 0;

  SimulatorTimerFleet(sim::Simulator& sim, ScheduleKind kind, std::int64_t eventCount)
      : simulator(sim), events(eventCount) {
    for (int i = 0; i < kTimers; ++i) {
      period[static_cast<std::size_t>(i)] = timerPeriod(kind, i);
      arm(i);
    }
  }

  void arm(int i) {
    const std::int64_t p = period[static_cast<std::size_t>(i)];
    const std::int64_t delta = p > 0 ? p : 1 + static_cast<std::int64_t>(rng.below(1000));
    simulator.schedule(sim::Duration::nanoseconds(delta), [this, i] {
      if (++fired < events) arm(i);
    });
  }
};

// ---------------------------------------------------------------------------
// Profiler A/B pair: the timer fleet once with no profiler attached (the
// production default — the hot loop's single nullptr branch) and once with
// the self-profiler recording every event. The "off" side IS the
// configuration the ratcheted timers_* runs below measure, so the 5%
// ratchet holds the zero-overhead claim across PRs; this table additionally
// shows what "on" costs.

double simulatorTimerEventsPerSecond(ScheduleKind kind, sim::Profiler* profiler,
                                     std::int64_t ops) {
  sim::Simulator simulator;
  if (profiler != nullptr) simulator.setProfiler(profiler);
  SimulatorTimerFleet fleet{simulator, kind, ops};
  const auto start = std::chrono::steady_clock::now();
  simulator.run();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(simulator.eventsExecuted()) / elapsed.count();
}

void emitProfilerPairTable() {
  constexpr std::int64_t kOps = 2'000'000;
  bench::Table table{"micro_simulator_profiler",
                     "Simulator event loop: self-profiler detached vs attached",
                     "detached is the ratcheted production path; attached shows probe cost",
                     {{"schedule"}, {"off_mev_s", 2}, {"on_mev_s", 2}, {"on_cost", 2}}};
  // Interleaved best-of-N: the two sides alternate within each repetition,
  // so transient machine load hits both rather than skewing the ratio, and
  // the max per side approximates unloaded throughput.
  constexpr int kReps = 5;
  for (int k = 0; k < 3; ++k) {
    const auto kind = static_cast<ScheduleKind>(k);
    double off = 0.0;
    double on = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      off = std::max(off, simulatorTimerEventsPerSecond(kind, nullptr, kOps));
      sim::Profiler profiler;  // fresh per repetition: histograms stay cheap
      on = std::max(on, simulatorTimerEventsPerSecond(kind, &profiler, kOps));
    }
    table.addRow({kScheduleNames[k], off / 1e6, on / 1e6, off / on});
  }
  table.addNote("1024 self-rescheduling timers through the full Simulator, 2M events per cell.");
  table.addNote("Best of 5 interleaved repetitions per side.");
  table.addNote("Machine-dependent: compare the on_cost column, not absolute rates.");
  table.write();
}

// ---------------------------------------------------------------------------
// BENCH_sim.json: one sweep run per schedule. events_per_second lands in
// the machine-readable summary, which tools/perf_ratchet.py gates against
// the committed baseline. A fourth run repeats the mixed schedule with the
// profiler attached so the instrumented regime has its own ratcheted
// baseline too.

void runTimerCell(sim::SweepCell& cell, ScheduleKind kind, bool profiled = false) {
  scenario::Scenario s;
  if (profiled) s.simulator.setProfiler(&s.profiler);
  SimulatorTimerFleet fleet{s.simulator, kind, 1'000'000};
  s.simulator.run();
  scenario::finishCell(s, cell);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  emitProfilerPairTable();

  sim::SweepRunner sweep;
  for (int k = 0; k < 3; ++k) {
    sweep.run<int>(
        1,
        [k](sim::SweepCell& cell) {
          runTimerCell(cell, static_cast<ScheduleKind>(k));
          return 0;
        },
        std::string{"timers_"} + kScheduleNames[k]);
  }
  sweep.run<int>(
      1,
      [](sim::SweepCell& cell) {
        runTimerCell(cell, ScheduleKind::kMixed, /*profiled=*/true);
        return 0;
      },
      "timers_mixed_profiled");
  bench::writeSweepReport(sweep, "micro_simulator");
  return 0;
}
