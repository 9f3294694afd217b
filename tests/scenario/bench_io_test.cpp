#include "scenario/bench_io.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

namespace scidmz::bench {
namespace {

/// Integers, fractions, a tiny value, a string that needs escaping, and
/// notes: every kind of cell a catalog table holds.
Table fixedTable() {
  Table table("unit_table", "a \"quoted\" title", "Section 0",
              {{"name"}, {"count"}, {"mbps", 1}, {"loss"}});
  table.addRow({"alpha", 3, 1234.5678, 1e-05});
  table.addRow({"tab\there", 1048576ULL, 0.26, 0.0});
  table.addNote("first note");
  table.addNote("second \\ note");
  return table;
}

constexpr const char* kJson =
    "{\"schema\":\"scidmz.bench.table.v1\",\"bench\":\"unit_table\","
    "\"title\":\"a \\\"quoted\\\" title\",\"paper_ref\":\"Section 0\","
    "\"columns\":[\"name\",\"count\",\"mbps\",\"loss\"],"
    "\"rows\":[[\"alpha\",3,1234.5678,1e-05],[\"tab\\u0009here\",1048576,0.26,0]],"
    "\"notes\":[\"first note\",\"second \\\\ note\"]}\n";

/// Sets an environment variable for one scope, then restores it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(BenchTable, JsonIsByteExact) { EXPECT_EQ(fixedTable().toJson(), kJson); }

TEST(BenchTable, TextViewHoldsEachNameCellAndNoteOnceInRowOrder) {
  const std::string text = fixedTable().toText();
  // Numbers print with the column's decimals, else as their JSON text;
  // strings and notes print verbatim. The last cell, 0, ends its line.
  const char* const expected[] = {"unit_table: a \"quoted\" title", "Section 0",
                                  "name", "count", "mbps", "loss",
                                  "alpha", "3", "1234.6", "1e-05",
                                  "tab\there", "1048576", "0.3", "  0\n",
                                  "first note", "second \\ note"};
  std::size_t last = 0;
  for (const std::string needle : expected) {
    const std::size_t at = text.find(needle, last);
    ASSERT_NE(at, std::string::npos) << '"' << needle << "\" missing in order from:\n" << text;
    last = at + needle.size();
  }
  for (const char* unique : {"name", "count", "mbps", "loss", "alpha", "1234.6", "1e-05",
                             "tab\there", "1048576", "first note", "second \\ note"}) {
    EXPECT_EQ(occurrences(text, unique), 1u) << unique << " in:\n" << text;
  }
  // Columns line up: each starts at the same offset on every line.
  std::istringstream lines(text.substr(text.find("name")));
  std::string header;
  std::string row1;
  std::getline(lines, header);
  std::getline(lines, row1);
  EXPECT_EQ(header.find("mbps"), row1.find("1234.6"));
  EXPECT_EQ(header.find("loss"), row1.find("1e-05"));
}

TEST(BenchTable, WriteWritesTheJsonBesideThePrintedView) {
  const auto dir = std::filesystem::temp_directory_path() / "scidmz_bench_io_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const ScopedEnv env("SCIDMZ_TABLE_JSON_DIR", dir.string());
  const Table table = fixedTable();
  testing::internal::CaptureStdout();
  EXPECT_TRUE(table.write());
  EXPECT_EQ(testing::internal::GetCapturedStdout(), table.toText());
  std::ifstream in(dir / "unit_table.table.json", std::ios::binary);
  std::stringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), kJson);
  std::filesystem::remove_all(dir);
}

TEST(BenchTable, DisabledJsonStillPrintsTheViewAndWritesNoFile) {
  const auto dir = std::filesystem::temp_directory_path() / "scidmz_bench_io_disabled";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  {
    const ScopedEnv env("SCIDMZ_TABLE_JSON_DIR", "");
    const Table table = fixedTable();
    testing::internal::CaptureStdout();
    EXPECT_TRUE(table.write());
    EXPECT_EQ(testing::internal::GetCapturedStdout(), table.toText());
  }
  std::filesystem::current_path(cwd);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace scidmz::bench
