#include "telemetry/snapshot.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/json_escape.hpp"

namespace scidmz::telemetry {

namespace {

void appendDouble(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  out += buf;
}

}  // namespace

std::uint64_t TelemetrySnapshot::counterValue(const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const TelemetrySnapshot::SeriesSummary* TelemetrySnapshot::findSeries(
    const std::string& name) const {
  for (const auto& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string TelemetrySnapshot::toJson() const {
  std::string out;
  out.reserve(256 + counters.size() * 48 + series.size() * 160);
  out += "{\"schema\":\"scidmz.telemetry.v1\",\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) out += ',';
    out += '"';
    sim::appendJsonEscaped(out, counters[i].name);
    out += "\":";
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(counters[i].value));
    out += buf;
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i) out += ',';
    out += '"';
    sim::appendJsonEscaped(out, gauges[i].name);
    out += "\":";
    appendDouble(out, gauges[i].value);
  }
  out += "},\"series\":{";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const SeriesSummary& s = series[i];
    if (i) out += ',';
    out += '"';
    sim::appendJsonEscaped(out, s.name);
    out += "\":{\"samples\":";
    char buf[24];
    std::snprintf(buf, sizeof buf, "%zu", s.sampleCount);
    out += buf;
    out += ",\"first\":";
    appendDouble(out, s.first);
    out += ",\"last\":";
    appendDouble(out, s.last);
    out += ",\"min\":";
    appendDouble(out, s.min);
    out += ",\"max\":";
    appendDouble(out, s.max);
    out += ",\"mean\":";
    appendDouble(out, s.mean);
    out += '}';
  }
  out += "},\"flight_recorder\":{\"recorded\":";
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(flightEventsRecorded));
  out += buf;
  out += ",\"retained\":";
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(flightEventsRetained));
  out += buf;
  out += ",\"overwritten\":";
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(flightEventsOverwritten));
  out += buf;
  out += "}}";
  return out;
}

}  // namespace scidmz::telemetry
