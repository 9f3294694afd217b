#include "scenario/observability.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/context.hpp"
#include "scenario/json.hpp"
#include "scenario/shard.hpp"
#include "sim/profiler.hpp"
#include "telemetry/span.hpp"

namespace scidmz::scenario {

namespace {

std::string g_trace_base;    // set by --trace=<base>
std::string g_profile_base;  // set by --profile=<base>
bool g_profile_flag = false;

/// Write `path` through `write`, throwing, not skipping, when it fails.
template <typename Write>
void writeFile(const std::string& path, Write write) {
  std::ofstream out(path);
  write(out);
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string fmtSeconds(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", static_cast<double>(ns) / 1e9);
  return buf;
}

std::string fmtPercent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%5.1f%%", fraction * 100.0);
  return buf;
}

/// The report's phase vocabulary, in display order. queue_limited is
/// reserved (no emitter yet) but kept in the table so its column is stable.
constexpr const char* kPhases[] = {"handshake",    "slow_start",    "cwnd_limited", "rwnd_limited",
                                   "queue_limited", "loss_recovery", "storage"};

struct RootReport {
  std::string file;
  std::string name;
  std::string cat;
  std::int64_t duration = 0;
  std::size_t streams = 1;
  std::map<std::string, std::int64_t> phaseNs;  ///< per parallel stream, summed.

  [[nodiscard]] std::int64_t denominator() const {
    return duration * static_cast<std::int64_t>(streams);
  }
  [[nodiscard]] std::int64_t attributedNs() const {
    std::int64_t total = 0;
    for (const auto& [name_, ns] : phaseNs) total += ns;
    return total;
  }
};

/// Why one trace event cannot be read; loadTraceFile adds the file and the
/// event index.
struct BadEvent {
  std::string what;
};

const Json& field(const Json& obj, const char* key, bool (Json::*is)() const, const char* type) {
  const Json& v = obj.get(key);
  if (!(v.*is)()) throw BadEvent{std::string("missing or non-") + type + " \"" + key + "\""};
  return v;
}

/// A span id or stream index: a whole number in [0, 2^32).
std::uint64_t indexField(const Json& obj, const char* key) {
  const double v = field(obj, key, &Json::isNumber, "numeric").asNumber();
  if (!(v >= 0.0 && v < 4294967296.0) || v != std::floor(v)) {
    throw BadEvent{std::string("\"") + key + "\" is not a whole number below 2^32"};
  }
  return static_cast<std::uint64_t>(v);
}

/// A ts/dur field in microseconds, as whole nanoseconds. The bound keeps
/// ts + dur inside int64_t.
std::int64_t nsField(const Json& obj, const char* key) {
  const double ns = field(obj, key, &Json::isNumber, "numeric").asNumber() * 1000.0;
  if (!(ns >= 0.0 && ns < 4e18)) throw BadEvent{std::string("\"") + key + "\" is out of range"};
  return std::llround(ns);
}

/// Read one scidmz.spans.v2 trace (exportChromeTrace) and append a report
/// row per root span, attributing each phase/storage child to its root's
/// row. Events come in id order with parents before children, so one pass
/// with a span→root map suffices. Any malformed event refuses the file.
bool loadTraceFile(const std::string& path, std::vector<RootReport>& roots, std::ostream& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err << "report: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  Json doc;
  try {
    doc = Json::parse(text.str());
  } catch (const JsonError& e) {
    err << "report: " << path << ": " << e.what() << "\n";
    return false;
  }
  const Json& schema = doc.get("otherData").get("schema");
  const Json& events = doc.get("traceEvents");
  if (!schema.isString() || schema.asString() != telemetry::kSpanTraceSchema || !events.isArray()) {
    err << "report: " << path << ": not a " << telemetry::kSpanTraceSchema << " trace\n";
    return false;
  }
  std::map<std::uint64_t, std::size_t> rootRowOf;   ///< root span id → roots index.
  std::map<std::uint64_t, std::uint64_t> rootIdOf;  ///< span id → its root's span id.
  for (std::size_t i = 0; i < events.size(); ++i) {
    try {
      const Json& ev = events.at(i);
      if (field(ev, "ph", &Json::isString, "string").asString() != "X") continue;
      const std::string& name = field(ev, "name", &Json::isString, "string").asString();
      const std::string& cat = field(ev, "cat", &Json::isString, "string").asString();
      const std::int64_t duration = nsField(ev, "dur");
      (void)nsField(ev, "ts");
      const Json& args = field(ev, "args", &Json::isObject, "object");
      const std::uint64_t id = indexField(args, "span_id");
      if (rootIdOf.count(id) != 0) throw BadEvent{"span_id " + std::to_string(id) + " repeats"};
      if (!args.contains("parent")) {
        rootIdOf[id] = id;
        rootRowOf[id] = roots.size();
        roots.push_back(RootReport{path, name, cat, duration, 1, {}});
        continue;
      }
      const std::uint64_t parent = indexField(args, "parent");
      const auto up = rootIdOf.find(parent);
      if (up == rootIdOf.end()) {
        throw BadEvent{"parent " + std::to_string(parent) + " not seen before span " +
                       std::to_string(id)};
      }
      rootIdOf[id] = up->second;
      RootReport& row = roots[rootRowOf[up->second]];
      if (cat == "tcp.phase") {
        row.phaseNs[name] += duration;
        if (args.contains("stream")) {
          row.streams = std::max<std::size_t>(row.streams, indexField(args, "stream") + 1);
        }
      } else if (cat == "storage") {
        row.phaseNs["storage"] += duration;
      }
    } catch (const BadEvent& e) {
      err << "report: " << path << ": event " << i << ": " << e.what << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

void setTraceOutput(const std::string& base) {
  g_trace_base = base;
  telemetry::setProcessTracingEnabled(true);
}

void setProfileOutput(const std::string& base) {
  g_profile_base = base;
  g_profile_flag = true;
}

bool profilingRequested() { return g_profile_flag; }

std::string traceOutputBase() { return g_trace_base; }

std::string profileOutputBase() { return g_profile_base; }

void writeCellObservability(Scenario& s, sim::SweepCell& cell) {
  const sim::SimTime now = s.ctx.now();
  telemetry::Tracer merged;
  const telemetry::Tracer* tracer = nullptr;
  if (s.sharded()) {
    // Sharded cell: each domain traced its own flows into its own Tracer,
    // and a flow's hops recorded into whichever domain ring they live in.
    // Correlate every domain tracer against the union of the rings, then
    // merge into one tracer whose span order (and hence export bytes and
    // spansEmitted) is partition-invariant.
    std::vector<const telemetry::FlightRecorder*> recorders;
    for (net::Context* ctx : s.shards->contexts) {
      recorders.push_back(&ctx->telemetry().recorder());
    }
    std::vector<const telemetry::Tracer*> parts;
    for (net::Context* ctx : s.shards->contexts) {
      auto& t = ctx->extension<telemetry::Tracer>();
      if (t.enabled()) {
        t.correlate(recorders, now);
        tracer = &merged;
      }
      parts.push_back(&t);
    }
    if (tracer != nullptr) merged.mergeFrom(parts);
  } else if (auto& own = s.ctx.extension<telemetry::Tracer>(); own.enabled()) {
    // Flow handles may still be alive (spans open): correlate against the
    // flight recorder now and let the exporter close open spans virtually.
    own.correlate(s.ctx.telemetry().recorder(), now);
    tracer = &own;
  }
  if (tracer != nullptr) {
    cell.spansEmitted = tracer->spansEmitted();
    // Per-cell files keep sweep workers from sharing a stream; cell.index
    // makes the paths deterministic at any SCIDMZ_SWEEP_THREADS.
    if (const std::string base = traceOutputBase(); !base.empty()) {
      writeFile(base + ".cell" + std::to_string(cell.index) + ".trace.json",
                [&](std::ostream& out) { tracer->exportChromeTrace(out, now, cell.index); });
    }
  }
  // --profile does not compose with sharding (attachShards refuses it),
  // so a sharded cell has no profiler block.
  if (s.sharded()) return;
  if (sim::Profiler* prof = s.simulator.profiler(); prof != nullptr) {
    prof->setHighWater("arena_blocks_live", s.ctx.arena().liveCount());
    prof->setHighWater("arena_blocks_peak", s.ctx.arena().highWater());
    prof->setHighWater("arena_unpooled_live", s.ctx.arena().unpooledLive());
    prof->setHighWater("arena_slabs", s.ctx.arena().slabCount());
    prof->setHighWater("packet_pool_peak", s.ctx.pool().highWater());
    prof->setHighWater("packet_pool_slots", s.ctx.pool().slotCount());
    const std::string base = profileOutputBase();
    if (!base.empty()) {
      writeFile(base + ".cell" + std::to_string(cell.index) + ".profile.json",
                [&](std::ostream& out) { prof->exportJson(out); });
    }
  }
}

bool printCriticalPathReport(const std::vector<std::string>& files, std::ostream& out,
                             std::ostream& err) {
  std::vector<RootReport> roots;
  for (const std::string& file : files) {
    if (!loadTraceFile(file, roots, err)) return false;
  }

  out << "critical-path report: " << files.size() << " file(s), " << roots.size()
      << " root span(s)\n";
  std::map<std::string, std::int64_t> aggregate;
  std::int64_t aggregateDenominator = 0;
  for (const RootReport& row : roots) {
    out << "\n" << row.name << "  [" << row.cat << "]  file=" << row.file << "\n";
    out << "  duration " << fmtSeconds(row.duration) << " s";
    if (row.streams > 1) out << "  (" << row.streams << " parallel streams)";
    out << "\n";
    if (row.duration <= 0) continue;
    const std::int64_t denom = row.denominator();
    for (const char* phase : kPhases) {
      const auto it = row.phaseNs.find(phase);
      if (it == row.phaseNs.end() || it->second == 0) continue;
      out << "    " << fmtPercent(static_cast<double>(it->second) / static_cast<double>(denom))
          << "  " << phase;
      for (int pad = static_cast<int>(14 - std::string(phase).size()); pad > 0; --pad) out << ' ';
      out << fmtSeconds(it->second) << " s\n";
      aggregate[phase] += it->second;
    }
    out << "    " << fmtPercent(static_cast<double>(row.attributedNs()) / static_cast<double>(denom))
        << "  attributed\n";
    aggregateDenominator += denom;
  }

  out << "\naggregate (all roots)\n";
  std::int64_t attributed = 0;
  for (const char* phase : kPhases) {
    const std::int64_t ns = aggregate.count(phase) != 0 ? aggregate[phase] : 0;
    attributed += ns;
    out << "    "
        << fmtPercent(aggregateDenominator > 0
                          ? static_cast<double>(ns) / static_cast<double>(aggregateDenominator)
                          : 0.0)
        << "  " << phase;
    for (int pad = static_cast<int>(14 - std::string(phase).size()); pad > 0; --pad) out << ' ';
    out << fmtSeconds(ns) << " s\n";
  }
  out << "    "
      << fmtPercent(aggregateDenominator > 0
                        ? static_cast<double>(attributed) / static_cast<double>(aggregateDenominator)
                        : 0.0)
      << "  attributed\n";
  return true;
}

}  // namespace scidmz::scenario
