// Bench output plumbing: aligned ASCII table printing, the
// machine-readable table emitter (scidmz.bench.table.v1 JSON next to every
// ASCII table, consumed by CI), and the sweep-report summary (stderr +
// BENCH_sim.json). (Moved here from bench/bench_util.hpp.)
//
// bench::Table is the one-call emitter: each row is described once as typed
// Cells and rendered to BOTH the ASCII table and the JSON mirror, so the
// two outputs can never drift. Per-column printf formats reproduce the
// legacy tables byte-for-byte; a pre-rendered Cell overrides the ASCII text
// for the handful of historical cells whose ASCII and JSON forms diverge.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/json_escape.hpp"
#include "sim/sweep.hpp"

namespace scidmz::bench {

inline void header(const char* title, const char* paperRef) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paperRef);
  std::printf("================================================================\n");
}

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

/// A cell of a machine-readable bench table: number or string.
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
};

/// Where a run's file artifacts go: $SCIDMZ_TABLE_JSON_DIR/<file>, or
/// ./<file> when the variable is unset. Empty when it is set to the empty
/// string, which disables the artifact.
inline std::string artifactPath(const std::string& file) {
  const char* env = std::getenv("SCIDMZ_TABLE_JSON_DIR");
  if (env != nullptr && *env == '\0') return {};
  return std::string(env != nullptr ? env : ".") + "/" + file;
}

/// Machine-readable mirror of a bench's ASCII table (one schema for every
/// figure/use-case bench, consumed by CI). Rows are appended alongside the
/// printed rows; write() drops `<bench>.table.json` under artifactPath().
class JsonTable {
 public:
  JsonTable(std::string bench, std::string title, std::string paperRef,
            std::vector<std::string> columns)
      : bench_(std::move(bench)),
        title_(std::move(title)),
        paper_ref_(std::move(paperRef)),
        columns_(std::move(columns)) {}

  JsonTable& addRow(std::vector<JsonValue> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  /// Free-form notes (the explanatory lines under the ASCII table).
  JsonTable& addNote(std::string note) {
    notes_.push_back(std::move(note));
    return *this;
  }

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
      JsonValue(columns_[i]).appendTo(out);
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

  bool writeTo(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    out << toJson();
    return static_cast<bool>(out);
  }

  /// Write to artifactPath("<bench>.table.json"). Returns true when written
  /// or intentionally disabled.
  bool write() const {
    const std::string path = artifactPath(bench_ + ".table.json");
    if (path.empty()) return true;  // explicitly disabled
    if (!writeTo(path)) {
      std::fprintf(stderr, "[table] could not write %s\n", path.c_str());
      return false;
    }
    return true;
  }

 private:
  std::string bench_;
  std::string title_;
  std::string paper_ref_;
  std::vector<std::string> columns_;
  std::vector<std::vector<JsonValue>> rows_;
  std::vector<std::string> notes_;
};

/// One column of a Table: the JSON column name, the printf format for the
/// ASCII cell (including its alignment padding — cells are joined by a
/// single space), an optional distinct ASCII header label, and an optional
/// explicit header format when it can't be derived from the cell format.
struct Column {
  std::string name;       ///< JSON column name
  std::string fmt;        ///< printf format for the ASCII cell
  std::string label;      ///< ASCII header text; defaults to `name`
  std::string headerFmt;  ///< printf %s format for the header; derived from
                          ///< `fmt` (same flags/width) when empty

  Column(std::string n, std::string f) : name(std::move(n)), fmt(std::move(f)) {
    label = name;
  }
  Column(std::string n, std::string f, std::string l)
      : name(std::move(n)), fmt(std::move(f)), label(std::move(l)) {}
  Column(std::string n, std::string f, std::string l, std::string hf)
      : name(std::move(n)), fmt(std::move(f)), label(std::move(l)), headerFmt(std::move(hf)) {}

  /// "%-14.1f" -> "%-14s": keep flags and width, drop precision/length/
  /// conversion, so the header aligns with the cells under it.
  [[nodiscard]] std::string derivedHeaderFmt() const {
    const std::size_t pct = fmt.find('%');
    if (pct == std::string::npos) return "%s";
    std::size_t i = pct + 1;
    while (i < fmt.size() && std::strchr("-+ #0", fmt[i]) != nullptr) ++i;
    while (i < fmt.size() && fmt[i] >= '0' && fmt[i] <= '9') ++i;
    return fmt.substr(pct, i - pct) + "s";
  }
};

/// One table row cell: carries the typed value once; Table::emit() renders
/// it into both the ASCII row (via the column's printf format) and the JSON
/// mirror. The (JsonValue, ascii) constructor pre-renders the ASCII text
/// verbatim for cells whose two forms intentionally diverge.
struct Cell {
  enum class Raw { kDouble, kSigned, kUnsigned, kString, kRendered };

  Raw raw = Raw::kRendered;
  JsonValue json{0.0};
  std::string ascii;          ///< kRendered / kString payloads
  double d = 0.0;             ///< kDouble payload
  long long s = 0;            ///< kSigned payload
  unsigned long long u = 0;   ///< kUnsigned payload

  Cell(double v) : raw(Raw::kDouble), json(v), d(v) {}       // NOLINT(google-explicit-constructor)
  Cell(int v) : raw(Raw::kSigned), json(v), s(v) {}          // NOLINT(google-explicit-constructor)
  Cell(long long v) : raw(Raw::kSigned), json(v), s(v) {}    // NOLINT(google-explicit-constructor)
  Cell(unsigned long long v)                                 // NOLINT(google-explicit-constructor)
      : raw(Raw::kUnsigned), json(v), u(v) {}
  Cell(unsigned long v)                                      // NOLINT(google-explicit-constructor)
      : Cell(static_cast<unsigned long long>(v)) {}
  Cell(const char* v)                                        // NOLINT(google-explicit-constructor)
      : raw(Raw::kString), json(v), ascii(v) {}
  Cell(std::string v)                                        // NOLINT(google-explicit-constructor)
      : raw(Raw::kString), json(v), ascii(std::move(v)) {}
  /// Pre-rendered: `asciiText` is used verbatim (no column format applied).
  Cell(JsonValue jsonValue, std::string asciiText)
      : raw(Raw::kRendered), json(std::move(jsonValue)), ascii(std::move(asciiText)) {}

  /// Render through the column's printf format, choosing the vararg cast
  /// from the format's length modifier + conversion character.
  [[nodiscard]] std::string render(const std::string& fmt) const {
    if (raw == Raw::kRendered) return ascii;
    // Locate the conversion spec: flags, width, precision, length, char.
    const std::size_t pct = fmt.find('%');
    std::size_t i = pct == std::string::npos ? fmt.size() : pct + 1;
    while (i < fmt.size() && std::strchr("-+ #0", fmt[i]) != nullptr) ++i;
    while (i < fmt.size() && ((fmt[i] >= '0' && fmt[i] <= '9') || fmt[i] == '.')) ++i;
    std::string length;
    while (i < fmt.size() && std::strchr("hljzt", fmt[i]) != nullptr) length += fmt[i++];
    const char conv = i < fmt.size() ? fmt[i] : 's';
    const char* f = fmt.c_str();
    switch (conv) {
      case 'f': case 'F': case 'e': case 'E': case 'g': case 'G':
        return formatRow(f, asDouble());
      case 'd': case 'i':
        if (length == "ll") return formatRow(f, static_cast<long long>(asSigned()));
        if (length == "l") return formatRow(f, static_cast<long>(asSigned()));
        if (length == "z") return formatRow(f, static_cast<std::size_t>(asSigned()));
        return formatRow(f, static_cast<int>(asSigned()));
      case 'u': case 'o': case 'x': case 'X':
        if (length == "ll") return formatRow(f, static_cast<unsigned long long>(asUnsigned()));
        if (length == "l") return formatRow(f, static_cast<unsigned long>(asUnsigned()));
        if (length == "z") return formatRow(f, static_cast<std::size_t>(asUnsigned()));
        return formatRow(f, static_cast<unsigned>(asUnsigned()));
      default:
        return formatRow(f, ascii.c_str());
    }
  }

 private:
  [[nodiscard]] double asDouble() const {
    if (raw == Raw::kDouble) return d;
    if (raw == Raw::kSigned) return static_cast<double>(s);
    return static_cast<double>(u);
  }
  [[nodiscard]] long long asSigned() const {
    if (raw == Raw::kSigned) return s;
    if (raw == Raw::kUnsigned) return static_cast<long long>(u);
    return static_cast<long long>(d);
  }
  [[nodiscard]] unsigned long long asUnsigned() const {
    if (raw == Raw::kUnsigned) return u;
    if (raw == Raw::kSigned) return static_cast<unsigned long long>(s);
    return static_cast<unsigned long long>(d);
  }
};

/// ASCII table + JSON mirror behind ONE emit call per row, so the printed
/// table and the .table.json can never drift apart.
class Table {
 public:
  Table(std::string bench, std::string title, std::string paperRef,
        std::vector<Column> columns)
      : columns_(std::move(columns)),
        json_(std::move(bench), std::move(title), std::move(paperRef), columnNames(columns_)) {}

  /// Print the header line (column labels aligned like the cells).
  void printHeader() {
    std::string line;
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      if (i) line += ' ';
      const Column& c = columns_[i];
      const std::string hf = c.headerFmt.empty() ? c.derivedHeaderFmt() : c.headerFmt;
      line += formatRow(hf.c_str(), c.label.c_str());
    }
    row("%s", line.c_str());
  }

  /// Render one row to stdout AND append it to the JSON mirror.
  void emit(std::vector<Cell> cells) {
    std::string line;
    std::vector<JsonValue> jsonCells;
    jsonCells.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) line += ' ';
      line += cells[i].render(i < columns_.size() ? columns_[i].fmt : std::string{"%s"});
      jsonCells.push_back(std::move(cells[i].json));
    }
    row("%s", line.c_str());
    json_.addRow(std::move(jsonCells));
  }

  /// Blank ASCII separator line (no JSON row).
  void blankRow() { std::printf("\n"); }

  /// Print a note line and mirror it into the JSON notes.
  void note(const std::string& text) {
    row("%s", text.c_str());
    json_.addNote(text);
  }

  /// Escape hatch for the few asymmetric ASCII/JSON spots (notes that only
  /// appear in one form, historical row quirks).
  JsonTable& json() { return json_; }

  bool write() const { return json_.write(); }

 private:
  static std::vector<std::string> columnNames(const std::vector<Column>& columns) {
    std::vector<std::string> names;
    names.reserve(columns.size());
    for (const auto& c : columns) names.push_back(c.name);
    return names;
  }

  std::vector<Column> columns_;
  JsonTable json_;
};

}  // namespace scidmz::bench
