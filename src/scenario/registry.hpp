// The scenario catalog: every paper figure, reference architecture,
// Section 6 use case, and ablation registers its ScenarioSpec(s) plus a
// renderer that turns the raw per-cell metrics back into the bench's
// table. `scidmz_run --run NAME` drives any entry from the command line.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "scenario/engine.hpp"
#include "scenario/spec.hpp"

namespace scidmz::scenario {

/// One sweep cell's spec and the metrics the engine produced for it.
struct CellOutcome {
  const ScenarioSpec* spec = nullptr;
  ScenarioResult result;
};

struct ScenarioEntry {
  std::string name;       ///< bench/binary name, e.g. "fig1_tcp_loss_rtt"
  std::string family;     ///< "figure" | "arch" | "usecase" | "ablation" | "vc" | "scale"
  std::string title;      ///< --list shows it; renderers title their table with it
  std::string paperRef;
  std::string sweepName;  ///< SweepRunner sweep label
  /// The cells, in sweep/table order. Empty for native entries.
  std::function<std::vector<ScenarioSpec>()> specs;
  /// Build and write the entry's tables from the sweep results. Runs after
  /// all cells complete, on the main thread, in cell order.
  std::function<void(const ScenarioEntry&, const std::vector<CellOutcome>&)> render;
  /// A fully self-driven entry (fig2's perfSONAR mesh): builds, runs, and
  /// prints on its own, titling its table from the entry. Mutually
  /// exclusive with specs/render.
  std::function<void(const ScenarioEntry&)> native;
};

class ScenarioRegistry {
 public:
  void add(ScenarioEntry entry) { entries_.push_back(std::move(entry)); }
  [[nodiscard]] const ScenarioEntry* find(const std::string& name) const;
  [[nodiscard]] const std::vector<ScenarioEntry>& entries() const { return entries_; }

  /// The built-in catalog, in paper order (figures, architectures, use
  /// cases, ablations, virtual circuits).
  static const ScenarioRegistry& builtin();

 private:
  std::vector<ScenarioEntry> entries_;
};

// One registration hook per catalog translation unit.
void registerFigureScenarios(ScenarioRegistry& registry);
void registerArchScenarios(ScenarioRegistry& registry);
void registerUsecaseScenarios(ScenarioRegistry& registry);
void registerAblationScenarios(ScenarioRegistry& registry);
void registerHybridScenarios(ScenarioRegistry& registry);
void registerVcScenarios(ScenarioRegistry& registry);
void registerScaleScenarios(ScenarioRegistry& registry);

}  // namespace scidmz::scenario
