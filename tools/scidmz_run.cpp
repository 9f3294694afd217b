// scidmz_run — one driver for the whole scenario catalog.
//
//   scidmz_run --list                     # catalog: name, family, cells, title
//   scidmz_run --run fig1_tcp_loss_rtt    # run a catalog entry (repeatable)
//   scidmz_run --spec myspec.json         # run an ad-hoc scidmz.scenario spec
//   scidmz_run --spec s.json --sweep topology.path.link.rateMbps=1000,10000
//   scidmz_run --dump                     # scidmz.scenario.catalog.v1 to stdout
//   scidmz_run --out DIR ...              # artifacts under DIR (unless the
//                                         # SCIDMZ_* env vars already say else)
//   scidmz_run --fidelity=fluid --run ... # override flow model fidelity for
//                                         # every non-pinned flow this run
//   scidmz_run --domains=8 --run ...      # sharded parallel execution: cut
//                                         # the topology at WAN links into N
//                                         # per-worker domains (results byte-
//                                         # identical at any N)
//   scidmz_run --trace=BASE --run ...     # causal span traces per cell:
//                                         # BASE.cellN.trace.json (Perfetto)
//   scidmz_run --profile=BASE --run ...   # event-loop self-profile per cell:
//                                         # BASE.cellN.profile.json
//   scidmz_run report TRACE.json...       # per-transfer critical-path
//                                         # breakdown from span traces
//   scidmz_run convert IN.frbin OUT.jsonl # flight trace to scidmz.trace.v1
//
// Catalog runs print the paper-style tables and write <name>.table.json;
// ad-hoc specs print every engine metric per sweep cell and mirror them
// into <name>.table.json.
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "scenario/bench_io.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/harness.hpp"
#include "scenario/json.hpp"
#include "scenario/observability.hpp"
#include "scenario/run.hpp"
#include "scenario/shard.hpp"
#include "scenario/spec.hpp"
#include "telemetry/flight_recorder.hpp"

namespace {

using namespace scidmz;
using scenario::Json;
using scenario::ScenarioRegistry;
using scenario::ScenarioSpec;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out DIR] [--fidelity packet|fluid] [--domains N] \\\n"
               "          [--trace BASE] [--profile BASE] [--list] [--dump] [--run NAME]... \\\n"
               "          [--spec FILE [--sweep dotted.path=v1,v2,...]...] \\\n"
               "          [--snapshot BASE] [--restore FILE]\n"
               "       %s report TRACE.json [TRACE.json ...]\n"
               "       %s convert IN.frbin OUT.jsonl\n",
               argv0, argv0, argv0);
  return 2;
}

std::size_t cellCount(const scenario::ScenarioEntry& entry) {
  return entry.specs ? entry.specs().size() : 1;
}

/// Spec-driven entries with at least one TCP-flow workload honor the
/// --fidelity override (pinned flows aside), unless the spec shards, which
/// pins packet fidelity; native entries drive their own simulations and may
/// pin fidelity throughout.
bool fluidCapable(const scenario::ScenarioEntry& entry) {
  if (!entry.specs) return false;
  for (const auto& spec : entry.specs()) {
    for (const auto& w : spec.workloads) {
      if (spec.domains == 0 && scenario::workloadHasFidelity(w.kind)) return true;
    }
  }
  return false;
}

void listCatalog() {
  std::printf("%-28s %-10s %-7s %s\n", "scenario", "family", "cells", "title");
  for (const auto& entry : ScenarioRegistry::builtin().entries()) {
    std::printf("%-28s %-10s %-7zu %s%s%s\n", entry.name.c_str(), entry.family.c_str(),
                cellCount(entry), entry.title.c_str(), entry.native ? "  [native]" : "",
                fluidCapable(entry) ? "  [fluid-capable]" : "");
  }
}

void dumpCatalog() {
  Json doc = Json::object();
  doc.set("schema", "scidmz.scenario.catalog.v1");
  Json scenarios = Json::array();
  for (const auto& entry : ScenarioRegistry::builtin().entries()) {
    Json e = Json::object();
    e.set("name", entry.name);
    e.set("family", entry.family);
    e.set("title", entry.title);
    e.set("paper_ref", entry.paperRef);
    e.set("sweep", entry.sweepName);
    e.set("native", entry.native != nullptr);
    e.set("cells", static_cast<std::uint64_t>(cellCount(entry)));
    if (entry.specs) {
      Json specs = Json::array();
      for (const auto& spec : entry.specs()) specs.push(spec.toJson());
      e.set("specs", std::move(specs));
    }
    scenarios.push(std::move(e));
  }
  doc.set("scenarios", std::move(scenarios));
  std::printf("%s\n", doc.pretty().c_str());
}

/// Set `doc`'s member at a dotted path ("workloads.0.tcp.bufBytes"),
/// creating nothing: every intermediate must already exist so typos fail
/// loudly instead of silently adding ignored keys.
void setPath(Json& doc, const std::string& path, Json value) {
  Json* node = &doc;
  std::size_t begin = 0;
  std::vector<std::string> segments;
  while (begin <= path.size()) {
    const std::size_t dot = path.find('.', begin);
    segments.push_back(path.substr(begin, dot == std::string::npos ? dot : dot - begin));
    if (dot == std::string::npos) break;
    begin = dot + 1;
  }
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    const std::string& seg = segments[i];
    if (node->isArray()) {
      const std::size_t index = std::strtoull(seg.c_str(), nullptr, 10);
      if (index >= node->size()) {
        throw scenario::JsonError("--sweep path \"" + path + "\": index " + seg +
                                  " out of range");
      }
      node = const_cast<Json*>(&node->at(index));
    } else if (node->isObject() && node->contains(seg)) {
      node = &(*node)[seg];
    } else {
      throw scenario::JsonError("--sweep path \"" + path + "\": no member \"" + seg + "\"");
    }
  }
  const std::string& leaf = segments.back();
  if (node->isArray()) {
    const std::size_t index = std::strtoull(leaf.c_str(), nullptr, 10);
    if (index >= node->size()) {
      throw scenario::JsonError("--sweep path \"" + path + "\": index " + leaf +
                                " out of range");
    }
    const_cast<Json&>(node->at(index)) = std::move(value);
  } else {
    node->set(leaf, std::move(value));
  }
}

/// A sweep operand is JSON when it parses as JSON (1500, 1e-4, true,
/// "quoted"), a bare string otherwise (htcp, random).
Json parseSweepValue(const std::string& text) {
  try {
    return Json::parse(text);
  } catch (const scenario::JsonError&) {
    return Json(text);
  }
}

struct SweepArg {
  std::string path;
  std::vector<std::string> values;
};

int runSpecFile(const std::string& file, const std::vector<SweepArg>& sweeps) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "scidmz_run: cannot read %s\n", file.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  Json base = Json::parse(buffer.str());
  // Expand the sweep grid: each --sweep multiplies the cell list.
  std::vector<Json> docs{base};
  for (const auto& sweep : sweeps) {
    std::vector<Json> expanded;
    for (const auto& doc : docs) {
      for (const auto& value : sweep.values) {
        Json next = doc;
        setPath(next, sweep.path, parseSweepValue(value));
        expanded.push_back(std::move(next));
      }
    }
    docs = std::move(expanded);
  }

  std::vector<ScenarioSpec> specs;
  specs.reserve(docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    auto spec = ScenarioSpec::fromJson(docs[i]);
    if (docs.size() > 1) spec.name += "#" + std::to_string(i);
    specs.push_back(std::move(spec));
  }

  const std::string benchName = specs[0].name.substr(0, specs[0].name.find('#'));
  const auto outcomes = scenario::runSpecs(specs, "spec", benchName);

  bench::Table table(benchName, "ad-hoc scenario spec run", file,
                     {{"cell"}, {"name"}, {"metric"}, {"value"}});
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    for (const auto& [key, value] : o.result.metrics) {
      table.addRow({static_cast<unsigned long long>(i), o.spec->name, key, value});
    }
  }
  table.write();
  return 0;
}

/// `--snapshot BASE`: run the canonical demo cell to the snapshot point,
/// write the scidmz.snap.v1 blob, then continue to the end and print the
/// reference table a later --restore must reproduce byte-for-byte.
int runSnapshotDemo(const std::string& base) {
  scenario::DemoCell cell;
  cell.scenario().simulator.runFor(sim::Duration::milliseconds(300));
  std::string error;
  if (!scenario::saveSnapshotFile(cell.scenario(), base, &error)) {
    std::fprintf(stderr, "scidmz_run: %s\n", error.c_str());
    return 1;
  }
  std::printf("snapshot written: %s (at t=0.3s)\n", base.c_str());
  cell.scenario().simulator.runFor(sim::Duration::milliseconds(700));
  std::printf("--- uninterrupted run to t=1.0s ---\n%s", cell.table().c_str());
  return 0;
}

/// `--restore FILE`: rebuild the demo cell, overlay the snapshot, continue
/// to the same end point. The printed table must match --snapshot's.
int runRestoreDemo(const std::string& file) {
  scenario::DemoCell cell;
  std::string error;
  if (!scenario::restoreSnapshotFile(cell.scenario(), file, &error)) {
    std::fprintf(stderr, "scidmz_run: %s\n", error.c_str());
    return 1;
  }
  std::printf("snapshot restored: %s (t=%.3fs)\n", file.c_str(),
              static_cast<double>(cell.scenario().simulator.now().ns()) * 1e-9);
  cell.scenario().simulator.runFor(sim::Duration::milliseconds(700));
  std::printf("--- restored run to t=1.0s ---\n%s", cell.table().c_str());
  return 0;
}

// --- `scidmz_run convert` — flight trace .frbin -> .jsonl ----------------

int convertTrace(const std::string& inPath, const std::string& outPath) {
  std::ifstream in(inPath, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "scidmz_run: cannot read %s\n", inPath.c_str());
    return 1;
  }
  telemetry::FlightRecorder recorder(1);
  if (!recorder.importBinary(in)) {
    std::fprintf(stderr, "scidmz_run: %s is not a valid scidmz.frbin.v1 blob\n", inPath.c_str());
    return 1;
  }
  std::ofstream out(outPath, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "scidmz_run: cannot write %s\n", outPath.c_str());
    return 1;
  }
  recorder.exportJsonl(out);
  if (!out) {
    std::fprintf(stderr, "scidmz_run: short write to %s\n", outPath.c_str());
    return 1;
  }
  std::printf("%s -> %s: %zu events, %zu emit points\n", inPath.c_str(), outPath.c_str(),
              recorder.size(), recorder.pointCount());
  return 0;
}

/// A directory the run's outputs must land in and cannot (`what` names the
/// output) is refused here, at flag parse, not after the first cell has
/// simulated.
bool dirWritable(const std::string& dir, const std::string& what) {
  if (::access(dir.c_str(), W_OK | X_OK) == 0) return true;
  std::fprintf(stderr, "scidmz_run: cannot write %s: %s\n", what.c_str(), std::strerror(errno));
  return false;
}

/// --trace/--profile name a base path, and each cell writes BASE.cellN.*
/// beside it.
bool outputBaseWritable(const std::string& base) {
  const std::size_t slash = base.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : base.substr(0, slash + 1);
  return dirWritable(dir, base + ".*: " + dir);
}

}  // namespace

int main(int argc, char** argv) {
  // `scidmz_run convert IN OUT` — offline frbin -> JSONL conversion.
  if (argc >= 2 && std::strcmp(argv[1], "convert") == 0) {
    if (argc != 4) {
      std::fprintf(stderr, "scidmz_run: convert needs IN.frbin and OUT.jsonl paths\n");
      return usage(argv[0]);
    }
    return convertTrace(argv[2], argv[3]);
  }
  // `scidmz_run report FILE...` — offline analysis, no simulation.
  if (argc >= 2 && std::strcmp(argv[1], "report") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "scidmz_run: report needs at least one TRACE.json file\n");
      return usage(argv[0]);
    }
    std::vector<std::string> files(argv + 2, argv + argc);
    return scenario::printCriticalPathReport(files, std::cout, std::cerr) ? 0 : 1;
  }

  bool list = false;
  bool dump = false;
  std::vector<std::string> runs;
  std::string specFile;
  std::vector<SweepArg> sweeps;
  std::string outDir;
  std::string snapshotBase;
  std::string restoreFile;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto operand = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "scidmz_run: %s needs %s\n", arg.c_str(), what);
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--dump") {
      dump = true;
    } else if (arg == "--run") {
      runs.emplace_back(operand("a scenario name"));
    } else if (arg == "--spec") {
      specFile = operand("a spec file");
    } else if (arg == "--sweep") {
      const std::string text = operand("dotted.path=v1,v2,...");
      const std::size_t eq = text.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= text.size()) {
        std::fprintf(stderr, "scidmz_run: --sweep wants dotted.path=v1,v2,... (got \"%s\")\n",
                     text.c_str());
        return usage(argv[0]);
      }
      SweepArg sweep;
      sweep.path = text.substr(0, eq);
      std::size_t begin = eq + 1;
      while (begin <= text.size()) {
        const std::size_t comma = text.find(',', begin);
        sweep.values.push_back(
            text.substr(begin, comma == std::string::npos ? comma : comma - begin));
        if (comma == std::string::npos) break;
        begin = comma + 1;
      }
      sweeps.push_back(std::move(sweep));
    } else if (arg == "--out") {
      outDir = operand("a directory");
      if (!dirWritable(outDir, outDir)) return 1;
    } else if (arg == "--fidelity" || arg.rfind("--fidelity=", 0) == 0) {
      const std::string text =
          arg == "--fidelity" ? operand("packet|fluid") : arg.substr(std::strlen("--fidelity="));
      const auto parsed = net::parseFlowFidelity(text);
      if (!parsed) {
        std::fprintf(stderr, "scidmz_run: --fidelity wants packet|fluid (got \"%s\")\n",
                     text.c_str());
        return usage(argv[0]);
      }
      net::setProcessFidelityOverride(*parsed);
    } else if (arg == "--domains" || arg.rfind("--domains=", 0) == 0) {
      const std::string text =
          arg == "--domains" ? operand("a domain count") : arg.substr(std::strlen("--domains="));
      char* end = nullptr;
      const long n = std::strtol(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0' || n < 1 || n > 1024) {
        std::fprintf(stderr, "scidmz_run: --domains wants an integer in [1, 1024] (got \"%s\")\n",
                     text.c_str());
        return usage(argv[0]);
      }
      scenario::setProcessDomainsOverride(static_cast<int>(n));
    } else if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      const std::string base =
          arg == "--trace" ? operand("an output base path") : arg.substr(std::strlen("--trace="));
      if (!outputBaseWritable(base)) return 1;
      scenario::setTraceOutput(base);
    } else if (arg == "--profile" || arg.rfind("--profile=", 0) == 0) {
      const std::string base = arg == "--profile" ? operand("an output base path")
                                                  : arg.substr(std::strlen("--profile="));
      if (!outputBaseWritable(base)) return 1;
      scenario::setProfileOutput(base);
    } else if (arg == "--snapshot" || arg.rfind("--snapshot=", 0) == 0) {
      snapshotBase =
          arg == "--snapshot" ? operand("an output path") : arg.substr(std::strlen("--snapshot="));
    } else if (arg == "--restore" || arg.rfind("--restore=", 0) == 0) {
      restoreFile =
          arg == "--restore" ? operand("a snapshot file") : arg.substr(std::strlen("--restore="));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "scidmz_run: unknown argument \"%s\"\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (!list && !dump && runs.empty() && specFile.empty() && snapshotBase.empty() &&
      restoreFile.empty()) {
    return usage(argv[0]);
  }
  if (!sweeps.empty() && specFile.empty()) {
    std::fprintf(stderr, "scidmz_run: --sweep only applies to --spec runs\n");
    return usage(argv[0]);
  }

  if (!outDir.empty()) {
    // Route artifacts under --out; explicit SCIDMZ_* env vars still win.
    ::setenv("SCIDMZ_TABLE_JSON_DIR", outDir.c_str(), /*overwrite=*/0);
    ::setenv("SCIDMZ_BENCH_JSON", (outDir + "/BENCH_sim.json").c_str(), /*overwrite=*/0);
  }

  try {
    if (list) listCatalog();
    if (dump) dumpCatalog();
    if (!snapshotBase.empty()) {
      if (const int rc = runSnapshotDemo(snapshotBase); rc != 0) return rc;
    }
    if (!restoreFile.empty()) {
      if (const int rc = runRestoreDemo(restoreFile); rc != 0) return rc;
    }
    for (const auto& name : runs) {
      if (const int rc = scenario::runScenarioMain(name); rc != 0) return rc;
    }
    if (!specFile.empty()) {
      if (const int rc = runSpecFile(specFile, sweeps); rc != 0) return rc;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scidmz_run: %s\n", e.what());
    return 1;
  }
  return 0;
}
