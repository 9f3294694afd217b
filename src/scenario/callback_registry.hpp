// Named scheduled closures that snapshots can claim. A raw
// Simulator::schedule(lambda) is invisible to scidmz.snap.v1 — the save
// refuses because the pending event has no serializable owner. Registering
// the closure under a stable name fixes that: the registry owns one
// pending timer per name, serializes the (at, seq) keys of every armed
// name, and on restore re-arms each one against the function the rebuilt
// scenario registered under the same name. Recurring callbacks reschedule
// themselves by name from inside their own body.
//
// Header-only on purpose: some users live in apps/, below the scenario
// library in the link order; only the checkpoint code in scenario/ walks
// the registry.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "sim/codec.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace scidmz::scenario {

/// Per-Context extension (net::Context::extension<CallbackRegistry>()).
/// Each name owns at most one pending timer; names are kept sorted so the
/// snapshot layout is deterministic.
class CallbackRegistry {
 public:
  /// Register (or replace) the closure behind `name`. A restore that finds
  /// an armed name the rebuild never registered refuses the blob, so
  /// scenarios must register before restoring.
  void registerNamed(std::string name, std::function<void()> fn) {
    entries_[std::move(name)].fn = std::move(fn);
  }

  [[nodiscard]] bool registered(const std::string& name) const {
    return entries_.find(name) != entries_.end();
  }

  /// Arm `name` to fire `delay` from now, replacing any pending schedule.
  void scheduleNamed(sim::Simulator& sim, const std::string& name, sim::Duration delay) {
    Entry& e = entries_.at(name);
    if (e.timer.valid()) sim.cancel(e.timer);
    e.timer = sim.schedule(delay, [&e] {
      e.timer = sim::EventId{};
      e.fn();
    });
  }

  void cancelNamed(sim::Simulator& sim, const std::string& name) {
    auto it = entries_.find(name);
    if (it == entries_.end() || !it->second.timer.valid()) return;
    sim.cancel(it->second.timer);
    it->second.timer = sim::EventId{};
  }

  /// Snapshot section: armed names + their event keys. Returns the pending
  /// events claimed, one per armed name.
  std::uint64_t serialize(sim::Codec& c, sim::Simulator& sim) {
    std::uint64_t claimed = 0;
    if (c.writing()) {
      std::uint64_t armed = 0;
      for (const auto& [name, e] : entries_) armed += e.timer.valid() ? 1 : 0;
      c.vu64(armed);
      for (auto& [name, e] : entries_) {
        if (!e.timer.valid()) continue;
        std::string n = name;
        c.str(n);
        claimed += sim::codecTimer(c, sim, e.timer, [] {});
      }
      return claimed;
    }
    // The restore protocol has already dropped every pending event, so any
    // handle the rebuild armed during construction is stale; clear them all
    // before re-arming the blob's set (else a stale id could alias a
    // restored event's key and cancelNamed would cancel the wrong event).
    for (auto& [name, e] : entries_) e.timer = sim::EventId{};
    std::uint64_t armed = 0;
    c.vu64(armed);
    for (std::uint64_t i = 0; i < armed; ++i) {
      std::string name;
      c.str(name);
      auto it = entries_.find(name);
      if (it == entries_.end()) {
        // The rebuild never registered this closure; dropping the event
        // would silently change the continuation, so refuse the blob.
        c.reader().markFailed();
        return claimed;
      }
      Entry& e = it->second;
      claimed += sim::codecTimer(c, sim, e.timer, [&e] {
        e.timer = sim::EventId{};
        e.fn();
      });
    }
    return claimed;
  }

 private:
  struct Entry {
    std::function<void()> fn;
    sim::EventId timer{};
  };
  std::map<std::string, Entry> entries_;
};

}  // namespace scidmz::scenario
