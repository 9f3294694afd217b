// The JSON string escaper shared by every writer of machine-readable
// output (BENCH_sim.json, bench tables, telemetry snapshots, span and
// flight-recorder exports): quote and backslash get a backslash, other
// control bytes a \u00XX escape, every other byte (UTF-8 included) passes
// through unchanged.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace scidmz::sim {

/// Append `s` to `out` escaped for a JSON string body (no quotes added).
inline void appendJsonEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace scidmz::sim
