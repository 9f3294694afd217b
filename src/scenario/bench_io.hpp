// Bench output plumbing: the bench table (scidmz.bench.table.v1 JSON plus
// the text view printed from it), printf helpers for the lines that print
// facts no table holds, and the sweep-report summary (stderr +
// BENCH_sim.json).
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/json_escape.hpp"
#include "sim/sweep.hpp"

namespace scidmz::bench {

inline std::string vformatRow(const char* fmt, va_list args) {
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  return out;
}

/// printf into a std::string — for cells that run off the main thread and
/// must defer their output until the sweep completes.
inline std::string formatRow(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string out = vformatRow(fmt, args);
  va_end(args);
  return out;
}

/// The banner above a bench's output: its title and what it reproduces.
inline std::string banner(const std::string& title, const std::string& paperRef) {
  const std::string rule(64, '=');
  return "\n" + rule + "\n" + title + "\nreproduces: " + paperRef + "\n" + rule + "\n";
}

inline void header(const char* title, const char* paperRef) {
  std::fputs(banner(title, paperRef).c_str(), stdout);
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

/// Table cell for a measured rate: "%.1f" when the flow established, the
/// "n/e" (never established) marker otherwise — a silent 0.0 looks like a
/// collapsed-but-working flow, which is a different failure.
inline std::string mbpsCell(double mbps, bool established) {
  return established ? formatRow("%.1f", mbps) : std::string{"n/e"};
}

/// Print each sweep run's parallel stats to stderr (stdout must stay
/// byte-identical to a serial run) and write the BENCH_sim.json wall-clock
/// summary. SCIDMZ_BENCH_JSON overrides the output path; set it empty to
/// disable the file.
inline void writeSweepReport(const sim::SweepRunner& sweep, const char* benchName) {
  for (const auto& run : sweep.history()) {
    const double speedup = run.wallSeconds > 0 ? run.cellSecondsSum() / run.wallSeconds : 0.0;
    std::fprintf(stderr,
                 "[sweep] %s/%s: %zu cells on %d worker%s, %.2fs wall "
                 "(%.2fs serial-equivalent, %.2fx), %llu events\n",
                 benchName, run.name.c_str(), run.cells.size(), run.workers,
                 run.workers == 1 ? "" : "s", run.wallSeconds,
                 run.cellSecondsSum(), speedup,
                 static_cast<unsigned long long>(run.totalEvents()));
  }
  const char* env = std::getenv("SCIDMZ_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_sim.json";
  if (path.empty()) return;
  if (!sweep.writeJson(benchName, path)) {
    std::fprintf(stderr, "[sweep] could not write %s\n", path.c_str());
  }
}

/// A cell of a bench table: number or string.
struct JsonValue {
  enum class Kind { kNumber, kString };
  Kind kind = Kind::kNumber;
  double number = 0.0;
  std::string text;

  JsonValue(double v) : number(v) {}                        // NOLINT(google-explicit-constructor)
  JsonValue(int v) : number(v) {}                           // NOLINT(google-explicit-constructor)
  JsonValue(long long v)                                    // NOLINT(google-explicit-constructor)
      : number(static_cast<double>(v)) {}
  JsonValue(unsigned long long v)                           // NOLINT(google-explicit-constructor)
      : number(static_cast<double>(v)) {}
  JsonValue(const char* v) : kind(Kind::kString), text(v) {}  // NOLINT
  JsonValue(std::string v)                                  // NOLINT(google-explicit-constructor)
      : kind(Kind::kString), text(std::move(v)) {}

  void appendTo(std::string& out) const {
    if (kind == Kind::kNumber) {
      char buf[40];
      // %.10g keeps integers exact (up to 2^33) and floats readable while
      // staying byte-deterministic for identical inputs.
      std::snprintf(buf, sizeof buf, "%.10g", number);
      out += buf;
      return;
    }
    out.push_back('"');
    sim::appendJsonEscaped(out, text);
    out.push_back('"');
  }

  /// The cell as the printed view shows it: a string verbatim; a number
  /// with `decimals` fixed decimals, or as its JSON text when decimals < 0.
  [[nodiscard]] std::string display(int decimals) const {
    if (kind == Kind::kString) return text;
    if (decimals >= 0) return formatRow("%.*f", decimals, number);
    std::string out;
    appendTo(out);
    return out;
  }
};

/// Where a run's file artifacts go: $SCIDMZ_TABLE_JSON_DIR/<file>, or
/// ./<file> when the variable is unset. Empty when it is set to the empty
/// string, which disables the artifact.
inline std::string artifactPath(const std::string& file) {
  const char* env = std::getenv("SCIDMZ_TABLE_JSON_DIR");
  if (env != nullptr && *env == '\0') return {};
  return std::string(env != nullptr ? env : ".") + "/" + file;
}

/// One column of a Table: its JSON name and, for the printed view only,
/// how many decimals its numbers show (-1: the number's JSON text).
struct Column {
  std::string name;
  int decimals = -1;
};

/// A bench table (one schema for every figure/use-case bench, consumed by
/// CI), described once as the rows and notes of its scidmz.bench.table.v1
/// JSON. write() prints the text view derived from them and then writes
/// the JSON, so the printed table and `<bench>.table.json` cannot drift.
class Table {
 public:
  Table(std::string bench, std::string title, std::string paperRef, std::vector<Column> columns)
      : bench_(std::move(bench)),
        title_(std::move(title)),
        paper_ref_(std::move(paperRef)),
        columns_(std::move(columns)) {}

  void addRow(std::vector<JsonValue> cells) { rows_.push_back(std::move(cells)); }

  /// A free-text line under the table.
  void addNote(std::string note) { notes_.push_back(std::move(note)); }

  [[nodiscard]] std::string toJson() const {
    std::string out;
    out.reserve(256 + rows_.size() * 64);
    out += "{\"schema\":\"scidmz.bench.table.v1\",\"bench\":";
    JsonValue(bench_).appendTo(out);
    out += ",\"title\":";
    JsonValue(title_).appendTo(out);
    out += ",\"paper_ref\":";
    JsonValue(paper_ref_).appendTo(out);
    out += ",\"columns\":[";
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      if (i) out += ',';
      JsonValue(columns_[i].name).appendTo(out);
    }
    out += "],\"rows\":[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (r) out += ',';
      out += '[';
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        if (c) out += ',';
        rows_[r][c].appendTo(out);
      }
      out += ']';
    }
    out += "],\"notes\":[";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      if (i) out += ',';
      JsonValue(notes_[i]).appendTo(out);
    }
    out += "]}\n";
    return out;
  }

  /// The printed view: the banner (bench, title, paper reference), the
  /// column names, one line per row with each column as wide as its widest
  /// cell, then the notes.
  [[nodiscard]] std::string toText() const {
    std::vector<std::vector<std::string>> lines{{}};
    for (const auto& c : columns_) lines[0].push_back(c.name);
    for (const auto& row : rows_) {
      auto& line = lines.emplace_back();
      for (std::size_t c = 0; c < row.size(); ++c) {
        line.push_back(row[c].display(c < columns_.size() ? columns_[c].decimals : -1));
      }
    }
    std::vector<std::size_t> widths;
    for (const auto& line : lines) {
      widths.resize(std::max(widths.size(), line.size()));
      for (std::size_t c = 0; c < line.size(); ++c) widths[c] = std::max(widths[c], line[c].size());
    }
    std::string out = banner(bench_ + ": " + title_, paper_ref_);
    for (const auto& line : lines) {
      std::size_t end = line.size();  // trailing empty cells print nothing
      while (end > 0 && line[end - 1].empty()) --end;
      for (std::size_t c = 0; c < end; ++c) {
        out += line[c];
        if (c + 1 < end) out.append(widths[c] - line[c].size() + 2, ' ');
      }
      out += '\n';
    }
    if (!notes_.empty()) out += '\n';
    for (const auto& note : notes_) out += note + '\n';
    return out;
  }

  /// Print toText() to stdout, then write toJson() to
  /// artifactPath("<bench>.table.json"). Returns true when written or
  /// intentionally disabled.
  bool write() const {
    std::fputs(toText().c_str(), stdout);
    const std::string path = artifactPath(bench_ + ".table.json");
    if (path.empty()) return true;  // explicitly disabled
    std::ofstream out(path, std::ios::binary);
    if (!(out << toJson())) {
      std::fprintf(stderr, "[table] could not write %s\n", path.c_str());
      return false;
    }
    return true;
  }

 private:
  std::string bench_;
  std::string title_;
  std::string paper_ref_;
  std::vector<Column> columns_;
  std::vector<std::vector<JsonValue>> rows_;
  std::vector<std::string> notes_;
};

}  // namespace scidmz::bench
