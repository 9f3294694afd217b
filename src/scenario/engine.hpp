// The scenario engine: materialize a ScenarioSpec into a live topology +
// applications, run it, and return a flat name -> value metric map.
//
// Determinism contract: a given spec produces bit-identical metrics on
// every run at any SCIDMZ_SWEEP_THREADS — device construction touches no
// simulator state, loss/background rngs are pure forks of the cell seed,
// and every metric is either an exact integer counter (< 2^53) or a value
// computed by the simulation itself. Renderers derive a table's quantities
// (Mbps, fractions, speedups) from these raw metrics.
#pragma once

#include <map>
#include <stdexcept>
#include <string>

#include "net/address.hpp"
#include "scenario/partition.hpp"
#include "scenario/spec.hpp"
#include "sim/sweep.hpp"

namespace scidmz::scenario {

struct Scenario;

/// Flat results of one scenario cell. Keys are "<prefix>.<metric>":
/// workload metrics under the workload's label (or "w<index>"), device
/// counters under "fw."/"sw."/"seg<k>.", analytic passes under
/// "validate."/"path.", and a labeled workload additionally snapshots the
/// device counters under "<label>." at its completion instant.
struct ScenarioResult {
  std::map<std::string, double> metrics;

  [[nodiscard]] bool has(const std::string& name) const {
    return metrics.find(name) != metrics.end();
  }
  [[nodiscard]] double get(const std::string& name, double fallback = 0.0) const {
    const auto it = metrics.find(name);
    return it == metrics.end() ? fallback : it->second;
  }
  /// Throwing lookup for metrics a renderer cannot do without.
  [[nodiscard]] double at(const std::string& name) const {
    const auto it = metrics.find(name);
    if (it == metrics.end()) {
      throw std::out_of_range("scenario result has no metric \"" + name + "\"");
    }
    return it->second;
  }
};

/// Build the spec's topology, run its analysis passes and workloads in
/// order, and finish the sweep cell (events executed + telemetry snapshot).
/// Throws SpecError when the spec combines a workload with a topology that
/// cannot host it (e.g. a campaign on a two-host path).
ScenarioResult runSpec(const ScenarioSpec& spec, sim::SweepCell& cell);

/// The devices and links of a path or ring topology, in construction
/// order: what runSpec builds and what the shard partitioner cuts. Empty
/// for the other kinds, which build themselves.
[[nodiscard]] DeviceGraph deviceGraph(const TopologySpec& topology);

/// Build and run one Section 6 use case in the cell's scenario, writing the
/// metrics its catalog renderer reads. Defined in catalog_usecases.cpp.
void runUsecase(const UsecaseTopology& u, Scenario& s, ScenarioResult& r);

/// Host `i` of a numbered host block: a.b.(1 + i/254).(1 + i%254), 254
/// hosts per /24 and never a .0 or .255 host byte. Unique for
/// 0 <= i < kMaxNumberedHosts; the fan-in and enterprise-edge builders
/// and the Colorado use case number their hosts this way.
[[nodiscard]] net::Address numberedHost(std::uint8_t a, std::uint8_t b, int i);

/// `prefix` then `index` in decimal ("h12"): the name of a numbered host,
/// router or workload. Built by appending: GCC 12 flags `"h" +
/// std::to_string(i)` as an overlapping memcpy (-Wrestrict) in Release.
[[nodiscard]] inline std::string numberedName(const char* prefix, std::size_t index) {
  std::string name = prefix;
  name += std::to_string(index);
  return name;
}

}  // namespace scidmz::scenario
