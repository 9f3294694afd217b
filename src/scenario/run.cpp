#include "scenario/run.hpp"

#include <cstdio>

#include "scenario/bench_io.hpp"
#include "sim/sweep.hpp"

namespace scidmz::scenario {

std::vector<CellOutcome> runSpecs(const std::vector<ScenarioSpec>& specs,
                                  const std::string& sweepName, const std::string& benchName) {
  sim::SweepRunner sweep;
  auto results = sweep.run<ScenarioResult>(
      specs.size(),
      [&specs](sim::SweepCell& cell) { return runSpec(specs[cell.index], cell); }, sweepName);
  std::vector<CellOutcome> outcomes;
  outcomes.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    outcomes.push_back(CellOutcome{&specs[i], std::move(results[i])});
  }
  bench::writeSweepReport(sweep, benchName.c_str());
  return outcomes;
}

int runScenario(const ScenarioEntry& entry) {
  if (entry.native) {
    entry.native(entry);
    return 0;
  }
  const auto specs = entry.specs();
  const auto outcomes = runSpecs(specs, entry.sweepName, entry.name);
  entry.render(entry, outcomes);
  return 0;
}

int runScenarioMain(const std::string& name) {
  const auto* entry = ScenarioRegistry::builtin().find(name);
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown scenario \"%s\"\n", name.c_str());
    return 1;
  }
  return runScenario(*entry);
}

}  // namespace scidmz::scenario
