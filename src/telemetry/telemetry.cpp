#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>

namespace scidmz::telemetry {

namespace {

bool envTruthy(const char* value) {
  if (value == nullptr || *value == '\0') return false;
  const std::string s(value);
  return s != "0" && s != "off" && s != "false" && s != "no";
}

}  // namespace

Telemetry::Telemetry(sim::Simulator& simulator, sim::Arena& arena)
    : sim_(simulator), arena_(arena) {
  if (envTruthy(std::getenv("SCIDMZ_TELEMETRY"))) enable();
}

void Telemetry::enable(TelemetryConfig config) {
  if (enabled_) return;  // first enable wins; samplers may already be armed
  enabled_ = true;
  config_ = config;
  recorder_.setCapacity(config_.ringCapacity);
  if (!samplers_.empty()) armTick();
}

TimeSeries& Telemetry::series(const std::string& name) {
  const auto it = series_index_.find(name);
  if (it != series_index_.end()) return *series_[it->second];
  series_.push_back(arena_.make<TimeSeries>(name));
  series_index_.emplace(name, series_.size() - 1);
  return *series_.back();
}

const TimeSeries* Telemetry::findSeries(const std::string& name) const {
  const auto it = series_index_.find(name);
  return it != series_index_.end() ? series_[it->second].get() : nullptr;
}

SamplerId Telemetry::addSampler(const std::string& seriesName, Sampler fn) {
  SamplerEntry entry;
  entry.id = ++next_sampler_id_;
  entry.series = &series(seriesName);
  entry.fn = std::move(fn);
  samplers_.push_back(std::move(entry));
  if (enabled_) armTick();
  return SamplerId{samplers_.back().id};
}

void Telemetry::removeSampler(SamplerId id) {
  if (!id.valid()) return;
  const auto it = std::find_if(samplers_.begin(), samplers_.end(),
                               [&](const SamplerEntry& e) { return e.id == id.value; });
  if (it != samplers_.end()) samplers_.erase(it);
}

void Telemetry::armTick() {
  if (tick_armed_ || restoring_) return;
  tick_armed_ = true;
  tick_event_ = sim_.scheduleDaemon(config_.sampleEvery, [this] { tick(); });
}

void Telemetry::tick() {
  tick_armed_ = false;
  if (sim::Profiler* prof = sim_.profiler(); prof != nullptr) prof->setSource("telemetry.tick");
  // Sample by id, not iterator: a sampler callback may register or remove
  // samplers (e.g. a TCP connection closing mid-run).
  for (std::size_t i = 0; i < samplers_.size(); ++i) {
    SamplerEntry& entry = samplers_[i];
    entry.series->append(sim_.now(), entry.fn());
  }
  if (!samplers_.empty()) armTick();
}

std::uint64_t Telemetry::serialize(sim::Codec& c) {
  std::uint64_t claimed = 0;
  // enabled() comes from the environment / scenario code and must match
  // between the snapshotting run and the rebuild — a mismatch would change
  // which emit points exist at all.
  bool enabled = enabled_;
  c.b(enabled);
  if (!c.writing() && enabled != enabled_) {
    c.reader().markFailed();
    return claimed;
  }
  sim::codecDuration(c, config_.sampleEvery);
  c.size(config_.ringCapacity);
  metrics_.serialize(c);
  recorder_.serialize(c);
  // Series by name (create-or-get): the rebuild plus component restores
  // created a subset of the snapshot's series; any missing ones appear now.
  std::uint64_t seriesCountN = series_.size();
  c.vu64(seriesCountN);
  if (c.writing()) {
    for (auto& sp : series_) {
      std::string name = sp->name();
      c.str(name);
      sp->serialize(c);
    }
  } else {
    for (std::uint64_t i = 0; i < seriesCountN; ++i) {
      std::string name;
      c.str(name);
      if (!c.ok()) return claimed;
      series(name).serialize(c);
    }
  }
  // Sampler ids continue from the snapshot's counter so ids minted after a
  // restore match the uninterrupted run (restore-time re-registrations
  // re-used ids the original run already minted).
  c.vu32(next_sampler_id_);
  // The pending sampling tick, re-armed as a daemon under its original key.
  if (c.writing()) {
    const sim::EventKey key = sim_.eventKey(tick_event_);
    bool armed = key.valid;
    c.b(armed);
    if (armed) {
      sim::SimTime at = key.at;
      std::uint64_t seq = key.seq;
      sim::codecTime(c, at);
      c.vu64(seq);
      claimed = 1;
    }
  } else {
    restoring_ = false;
    bool armed = false;
    c.b(armed);
    if (armed) {
      sim::SimTime at = sim::SimTime::zero();
      std::uint64_t seq = 0;
      sim::codecTime(c, at);
      c.vu64(seq);
      tick_armed_ = true;
      tick_event_ = sim_.restoreScheduleDaemon(at, seq, [this] { tick(); });
      claimed = 1;
    } else {
      tick_armed_ = false;
      tick_event_ = sim::EventId{};
    }
  }
  return claimed;
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot snap;
  metrics_.forEachCounter([&](const std::string& name, std::uint64_t value) {
    snap.counters.push_back({name, value});
  });
  metrics_.forEachGauge([&](const std::string& name, double value) {
    snap.gauges.push_back({name, value});
  });
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::sort(snap.gauges.begin(), snap.gauges.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  for (const auto& sp : series_) {
    const TimeSeries& s = *sp;
    TelemetrySnapshot::SeriesSummary summary;
    summary.name = s.name();
    summary.sampleCount = s.size();
    if (!s.empty()) {
      summary.first = s.first();
      summary.last = s.last();
      summary.min = s.min();
      summary.max = s.max();
      summary.mean = s.mean();
    }
    snap.series.push_back(std::move(summary));
  }
  std::sort(snap.series.begin(), snap.series.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  snap.flightEventsRecorded = recorder_.totalRecorded();
  snap.flightEventsRetained = recorder_.size();
  snap.flightEventsOverwritten = recorder_.overwritten();
  return snap;
}

bool Telemetry::writeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  recorder_.exportBinary(out);
  return static_cast<bool>(out);
}

}  // namespace scidmz::telemetry
