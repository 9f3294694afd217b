// Sharded scenario runtime: per-domain simulator/rng/context
// bundles plus the conservative ShardedSimulator that stitches them at WAN
// links. attachShards() arms a Scenario before topology construction; the
// scenario code itself is unchanged — it builds devices through the same
// Topology factories and advances time through Scenario::runFor().
//
// Determinism contract (the bar every result holds): tables, merged
// telemetry snapshots and merged span exports are byte-identical at any
// --domains, because (a) every cut-eligible link routes deliveries through
// reserved-sequence channels at every domain count, (b) per-domain RNGs
// only ever produce values that never surface in compared artifacts
// (ephemeral ports), and (c) merges are keyed on names/timestamps, never
// on domain index.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/context.hpp"
#include "scenario/partition.hpp"
#include "sim/domain.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace scidmz::scenario {

struct Scenario;

/// One extra domain's private runtime (domain 0 reuses the Scenario's own
/// members). Same seed as the scenario: RNG streams are per-context, and
/// nothing a context RNG produces surfaces in compared artifacts.
struct DomainRuntime {
  explicit DomainRuntime(std::uint64_t seed) : rng(seed) {}

  sim::Simulator simulator;
  sim::Rng rng;
  net::Context ctx{simulator, rng};
};

struct ShardRuntime {
  ShardRuntime(Scenario& s, int domains, std::uint64_t seed, sim::Duration lookaheadFloor);

  sim::Duration lookahead;
  std::vector<std::unique_ptr<DomainRuntime>> extras;  ///< domains 1..N-1
  std::vector<net::Context*> contexts;                 ///< [0] = scenario ctx
  std::unique_ptr<sim::ShardedSimulator> sharded;
};

/// Arm `s` for sharded execution per `plan` (from planShards or a
/// hand-written map). Must run before any topology construction; refuses a
/// non-positive lookahead (zero lookahead means no conservative window) or
/// an armed profiler (its counters are single-queue by construction).
/// Per-domain telemetry hubs follow the primary hub's enabled state, and
/// every domain's FlowFactory is pinned to packet fidelity (the fluid
/// engine's global rate solve does not shard).
void attachShards(Scenario& s, const ShardPlan& plan, std::uint64_t seed,
                  sim::Duration lookaheadFloor);

/// Process-wide domain-count override (`scidmz_run --domains=N`): replaces
/// every spec's `domains` field. N=1 still runs the sharded scheduler (the
/// byte-compare baseline); nullopt defers to the spec. Set once at startup,
/// before any simulation runs — sweep workers read it unsynchronized.
void setProcessDomainsOverride(std::optional<int> domains);
[[nodiscard]] std::optional<int> processDomainsOverride();

}  // namespace scidmz::scenario
