// Seeded mutation pass over the two text decoders read back from disk: the
// scidmz.scenario.v2 spec reader and the JSON parser under it. Seeds are
// every registered catalog spec as toJson().dump() writes it, plus the
// scenario goldens' table JSON. Every mutant — bit flips, truncations,
// nesting past Json::kMaxDepth, huge numbers, a 1 MiB string, each numeric
// field set to 0, -1 and 1e300 — must either be refused with a JsonError
// (SpecError included) or parse into a value that is the fixed point of
// its own round trip. Anything else (another exception, a sanitizer
// report, a spec that writes what it does not read back) fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/json.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

namespace scidmz::scenario {
namespace {

/// Stands in for one leaf in a dump, to be replaced by raw mutant text.
constexpr const char* kMarker = "\x01mutant\x01";

struct Mutant {
  std::string label;
  std::string text;
};

/// Pointers to every number or string leaf of `doc`, depth first.
void collectLeaves(Json& doc, std::vector<Json*>& numbers, std::vector<Json*>& strings) {
  if (doc.isNumber()) numbers.push_back(&doc);
  if (doc.isString()) strings.push_back(&doc);
  if (doc.isArray()) {
    for (std::size_t i = 0; i < doc.size(); ++i) {
      collectLeaves(const_cast<Json&>(doc.at(i)), numbers, strings);
    }
  }
  if (doc.isObject()) {
    for (const auto& [key, value] : doc.members()) collectLeaves(doc[key], numbers, strings);
  }
}

/// `doc` dumped with `leaf` spelled as `raw` (which need not be valid JSON).
std::string withLeaf(const Json& doc, Json& leaf, const std::string& raw) {
  const Json saved = leaf;
  leaf = kMarker;
  std::string text = doc.dump();
  leaf = saved;
  std::string quoted;
  appendJsonString(quoted, kMarker);
  text.replace(text.find(quoted), quoted.size(), raw);
  return text;
}

/// `hugeString` adds the 1 MiB string mutant, the one that costs most.
std::vector<Mutant> mutants(const std::string& text, std::mt19937_64& rng, bool hugeString) {
  const auto below = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  std::vector<Mutant> out;
  for (int i = 0; i < 6; ++i) {
    std::string m = text;
    const std::size_t bit = below(m.size() * 8);
    m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
    out.push_back({"flip bit " + std::to_string(bit), std::move(m)});
  }
  for (int i = 0; i < 4; ++i) {
    const std::size_t keep = below(text.size());
    out.push_back({"truncate to " + std::to_string(keep), text.substr(0, keep)});
  }
  Json doc = Json::parse(text);
  std::vector<Json*> numbers;
  std::vector<Json*> strings;
  collectLeaves(doc, numbers, strings);
  const std::size_t depth = static_cast<std::size_t>(Json::kMaxDepth) + 1;
  const std::string deep = std::string(depth, '[') + std::string(depth, ']');
  if (!numbers.empty()) {
    out.push_back({"nesting past the bound", withLeaf(doc, *numbers[below(numbers.size())], deep)});
  }
  for (std::size_t n = 0; n < numbers.size(); ++n) {
    for (const char* raw : {"0", "-1", "1e300", "1e308", "-1e308", "1e400"}) {
      out.push_back({"number " + std::to_string(n) + " = " + raw, withLeaf(doc, *numbers[n], raw)});
    }
  }
  if (hugeString && !strings.empty()) {
    std::string huge;
    appendJsonString(huge, std::string(1 << 20, 'x'));
    out.push_back({"1 MiB string", withLeaf(doc, *strings[below(strings.size())], huge)});
  }
  return out;
}

struct Tally {
  int refused = 0;
  int accepted = 0;
};

/// Refused with a JsonError, or a spec whose toJson() is its own fixed point.
void checkSpec(const Mutant& m, Tally& tally) {
  try {
    const std::string once = ScenarioSpec::parse(m.text).toJson().dump();
    EXPECT_EQ(ScenarioSpec::parse(once).toJson().dump(), once) << m.label;
    ++tally.accepted;
  } catch (const JsonError&) {
    ++tally.refused;
  } catch (const std::exception& e) {
    ADD_FAILURE() << m.label << ": " << e.what();
  }
}

/// Refused with a JsonError, or a value whose dump() is its own fixed point.
void checkJson(const Mutant& m, Tally& tally) {
  try {
    const std::string once = Json::parse(m.text).dump();
    EXPECT_EQ(Json::parse(once).dump(), once) << m.label;
    ++tally.accepted;
  } catch (const JsonError&) {
    ++tally.refused;
  } catch (const std::exception& e) {
    ADD_FAILURE() << m.label << ": " << e.what();
  }
}

TEST(SpecMutation, EveryCatalogSpecMutantIsRefusedOrAFixedPoint) {
  std::mt19937_64 rng{20131117};
  Tally tally;
  std::size_t seeds = 0;
  for (const auto& entry : ScenarioRegistry::builtin().entries()) {
    if (!entry.specs) continue;
    bool first = true;  // one 1 MiB string per catalog entry
    for (const auto& spec : entry.specs()) {
      for (const auto& m : mutants(spec.toJson().dump(), rng, first)) checkSpec(m, tally);
      first = false;
      ++seeds;
    }
  }
  EXPECT_GT(seeds, 100u);
  EXPECT_GT(tally.refused, 0);
  EXPECT_GT(tally.accepted, 0);
}

TEST(SpecMutation, EveryGoldenTableMutantIsRefusedOrAFixedPoint) {
  std::mt19937_64 rng{20131117};
  Tally json;
  Tally spec;
  std::vector<std::filesystem::path> files;  // sorted, so the mutants are too
  for (const auto& file : std::filesystem::directory_iterator(SCIDMZ_GOLDENS_DIR)) {
    const std::string name = file.path().filename().string();
    if (name.size() > 11 && name.substr(name.size() - 11) == ".table.json") {
      files.push_back(file.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const std::string name = file.filename().string();
    for (const auto& m : mutants(text.str(), rng, true)) {
      checkJson({name + ": " + m.label, m.text}, json);
      checkSpec({name + ": " + m.label, m.text}, spec);
    }
  }
  EXPECT_GE(files.size(), 20u);
  EXPECT_GT(json.refused, 0);
  EXPECT_GT(json.accepted, 0);
  EXPECT_EQ(spec.accepted, 0);  // a table is not a scenario
}

}  // namespace
}  // namespace scidmz::scenario
