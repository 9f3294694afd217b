// runEsnetScale: the catalog's esnet_scale ring driven from a plain config.
// The end-to-end benchmark (bench/e2e) calls it, and that is its only
// reason to exist: the ring itself is the `esnet_scale` spec, a `ring`
// topology. The shim (in src/scenario/catalog_scale.cpp) copies the config
// into that spec, runs it through runSpec, and reads the per-site table
// back out of the metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/sweep.hpp"
#include "sim/units.hpp"

namespace scidmz::scenario {

struct EsnetScaleConfig {
  int sites = 8;
  int hostsPerSite = 4;
  int flowsPerHost = 1;
  /// Simulated time to run after flow start.
  sim::Duration runDuration = sim::Duration::milliseconds(500);
  std::uint64_t seed = 20130101;
  /// Requested worker domains (>= 1). 1 still runs the sharded scheduler —
  /// it is the byte-compare baseline for every higher count.
  int domains = 1;
};

struct EsnetScaleResult {
  /// Bytes landed at each site's hosts (site = flow destination), in site
  /// order. Domain-invariant.
  std::vector<unsigned long long> deliveredBySite;
  std::uint64_t flows = 0;
};

/// Run the esnet_scale spec at `cfg` and finish `cell` as runSpec does.
EsnetScaleResult runEsnetScale(const EsnetScaleConfig& cfg, sim::SweepCell& cell);

}  // namespace scidmz::scenario
