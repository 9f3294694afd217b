// Drive a catalog entry end to end: header, sweep over its specs, render,
// sweep report. `scidmz_run --run NAME` calls runScenarioMain(); ad-hoc
// specs go through runSpecs().
#pragma once

#include <string>
#include <vector>

#include "scenario/registry.hpp"

namespace scidmz::scenario {

/// Run every cell of `specs` on the parallel sweep runner (bit-identical
/// at any SCIDMZ_SWEEP_THREADS) and pair each spec with its metrics.
/// `benchName` labels the BENCH_sim.json entry; `sweepName` the stderr
/// progress lines.
std::vector<CellOutcome> runSpecs(const std::vector<ScenarioSpec>& specs,
                                  const std::string& sweepName, const std::string& benchName);

/// Everything one catalog entry prints and writes: print the header, run
/// the sweep (or the native body), render the tables, write the sweep
/// report. Returns a process exit code.
int runScenario(const ScenarioEntry& entry);

/// Look `name` up in the builtin registry and run it; unknown names print
/// to stderr and return 1.
int runScenarioMain(const std::string& name);

}  // namespace scidmz::scenario
