#include "scenario/shard.hpp"

#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/flow.hpp"
#include "net/topology.hpp"
#include "scenario/harness.hpp"
#include "telemetry/snapshot.hpp"

namespace scidmz::scenario {

ShardRuntime::ShardRuntime(Scenario& s, int domains, std::uint64_t seed,
                           sim::Duration lookaheadFloor)
    : lookahead(lookaheadFloor) {
  contexts.push_back(&s.ctx);
  std::vector<sim::Simulator*> sims;
  sims.push_back(&s.simulator);
  for (int d = 1; d < domains; ++d) {
    extras.push_back(std::make_unique<DomainRuntime>(seed));
    contexts.push_back(&extras.back()->ctx);
    sims.push_back(&extras.back()->simulator);
  }
  sharded = std::make_unique<sim::ShardedSimulator>(std::move(sims), lookahead);
}

void attachShards(Scenario& s, const ShardPlan& plan, std::uint64_t seed,
                  sim::Duration lookaheadFloor) {
  if (s.shards != nullptr) {
    throw std::runtime_error("attachShards: scenario already sharded");
  }
  if (s.simulator.profiler() != nullptr) {
    throw std::runtime_error(
        "sharded execution does not compose with --profile: the self-profiler "
        "instruments one event queue; run the profile at --domains=1 without sharding");
  }
  if (plan.domains < 1) {
    throw std::runtime_error("attachShards: plan has no domains");
  }
  s.shards = std::make_shared<ShardRuntime>(s, plan.domains, seed, lookaheadFloor);

  // Per-domain hubs follow the primary's instrumentation decision (made by
  // the engine / SCIDMZ_TELEMETRY before shards attach) so every domain's
  // emit points are live and the merged snapshot covers the whole topology.
  if (s.ctx.telemetry().enabled()) {
    for (auto& extra : s.shards->extras) {
      extra->ctx.telemetry().enable(s.ctx.telemetry().config());
    }
  }

  // The fluid engine's rate solve reads link state across the whole
  // topology from one thread; pin every domain to per-packet TCP so no
  // cross-domain state is touched off the owning worker.
  for (net::Context* ctx : s.shards->contexts) {
    net::flowFactory(*ctx).setOverride(net::FlowFidelity::kPacket);
  }

  net::ShardConfig config;
  config.domains = s.shards->contexts;
  config.deviceDomain = plan.nodeDomain;
  config.lookaheadFloor = lookaheadFloor;
  config.sharded = s.shards->sharded.get();
  s.topo.configureShards(std::move(config));
}

namespace {
std::optional<int> g_domains_override;
}  // namespace

void setProcessDomainsOverride(std::optional<int> domains) { g_domains_override = domains; }

std::optional<int> processDomainsOverride() { return g_domains_override; }

void Scenario::runFor(sim::Duration d) {
  if (shards != nullptr) {
    shards->sharded->runFor(d);
  } else {
    simulator.runFor(d);
  }
}

namespace {

/// Deterministic union of per-domain telemetry snapshots: counters summed
/// by name (the same emit point may fire in several domains — e.g. pool
/// counters), gauges and series unioned by name (device-scoped names are
/// unique to one domain; first mention wins), flight accounting summed.
/// std::map keying makes the merged vectors name-sorted, matching what a
/// single-domain hub's snapshot() emits.
telemetry::TelemetrySnapshot mergeSnapshots(const std::vector<net::Context*>& contexts) {
  using Snapshot = telemetry::TelemetrySnapshot;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Snapshot::SeriesSummary> series;
  Snapshot merged;
  for (net::Context* ctx : contexts) {
    const Snapshot part = ctx->telemetry().snapshot();
    for (const auto& c : part.counters) counters[c.name] += c.value;
    for (const auto& g : part.gauges) gauges.try_emplace(g.name, g.value);
    for (const auto& ss : part.series) series.try_emplace(ss.name, ss);
    merged.flightEventsRecorded += part.flightEventsRecorded;
    merged.flightEventsRetained += part.flightEventsRetained;
    merged.flightEventsOverwritten += part.flightEventsOverwritten;
  }
  merged.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) merged.counters.push_back({name, value});
  merged.gauges.reserve(gauges.size());
  for (const auto& [name, value] : gauges) merged.gauges.push_back({name, value});
  merged.series.reserve(series.size());
  for (const auto& [name, summary] : series) merged.series.push_back(summary);
  return merged;
}

}  // namespace

void finishCell(Scenario& s, sim::SweepCell& cell) {
  if (s.shards == nullptr) {
    cell.eventsExecuted = s.simulator.eventsExecuted();
    cell.packetsForwarded = s.ctx.packetsForwarded();
    cell.flowsCreated = net::flowFactory(s.ctx).flowsCreated();
    if (s.ctx.telemetry().enabled()) {
      cell.telemetryJson = s.ctx.telemetry().snapshot().toJson();
    }
    writeCellObservability(s, cell);
    return;
  }

  ShardRuntime& shards = *s.shards;
  cell.domains = static_cast<std::uint32_t>(shards.contexts.size());
  cell.eventsExecuted = shards.sharded->eventsExecuted();
  cell.domainEvents.clear();
  cell.domainBusySeconds.clear();
  cell.domainWaitSeconds.clear();
  for (int d = 0; d < shards.sharded->domainCount(); ++d) {
    cell.domainEvents.push_back(shards.sharded->domainEvents(d));
    cell.domainBusySeconds.push_back(shards.sharded->domainBusySeconds(d));
    cell.domainWaitSeconds.push_back(shards.sharded->domainWaitSeconds(d));
  }
  cell.packetsForwarded = 0;
  cell.flowsCreated = 0;
  for (net::Context* ctx : shards.contexts) {
    cell.packetsForwarded += ctx->packetsForwarded();
    cell.flowsCreated += net::flowFactory(*ctx).flowsCreated();
  }
  if (s.ctx.telemetry().enabled()) {
    cell.telemetryJson = mergeSnapshots(shards.contexts).toJson();
  }
  writeCellObservability(s, cell);
}

}  // namespace scidmz::scenario
