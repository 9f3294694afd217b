// Seeded mutation pass over the two binary formats read back from disk:
// a scidmz.snap.v1 snapshot of the demo cell and the scidmz.frbin.v1
// flight-recorder export of the same run. Every mutant — bit flips,
// truncations, a byte forced to 0xff, inflated section lengths, trailing
// junk — must be refused. Without section checksums a flipped bit inside a
// body decodes into a different but plausible run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/checkpoint.hpp"
#include "scenario/harness.hpp"
#include "sim/units.hpp"
#include "telemetry/flight_recorder.hpp"

namespace scidmz::scenario {
namespace {

using namespace scidmz::sim::literals;
using Blob = std::vector<std::uint8_t>;

/// Offsets of each section's u32 length field: after the magic line, each
/// section is fourcc + u32 length + u32 CRC-32 + body.
std::vector<std::size_t> sectionLengthOffsets(const Blob& blob, std::size_t magicBytes) {
  std::vector<std::size_t> out;
  for (std::size_t at = magicBytes; at + 12 <= blob.size();) {
    std::uint32_t length = 0;
    std::memcpy(&length, blob.data() + at + 4, 4);
    out.push_back(at + 4);
    at += 12 + length;
  }
  return out;
}

/// At least 70 labelled mutants of `blob`, from a fixed seed.
std::vector<std::pair<std::string, Blob>> mutants(const Blob& blob, std::size_t magicBytes) {
  std::mt19937_64 rng{20131117};
  const auto below = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  std::vector<std::pair<std::string, Blob>> out;
  for (int i = 0; i < 20; ++i) {
    Blob m = blob;
    const std::size_t bit = below(m.size() * 8);
    m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    out.emplace_back("flip bit " + std::to_string(bit), std::move(m));
  }
  for (int i = 0; i < 20; ++i) {
    const std::size_t keep = below(blob.size());
    out.emplace_back("truncate to " + std::to_string(keep),
                     Blob(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(keep)));
  }
  for (int i = 0; i < 20;) {
    const std::size_t at = below(blob.size());
    if (blob[at] == 0xff) continue;
    Blob m = blob;
    m[at] = 0xff;
    out.emplace_back("0xff at " + std::to_string(at), std::move(m));
    ++i;
  }
  for (const std::size_t field : sectionLengthOffsets(blob, magicBytes)) {
    for (const std::uint32_t extra : {1u, 8u, 4096u, 1u << 30}) {
      Blob m = blob;
      std::uint32_t length = 0;
      std::memcpy(&length, m.data() + field, 4);
      length += extra;
      std::memcpy(m.data() + field, &length, 4);
      out.emplace_back("length at " + std::to_string(field) + " +" + std::to_string(extra),
                       std::move(m));
    }
  }
  for (const std::size_t junk : {1u, 16u}) {
    Blob m = blob;
    m.insert(m.end(), junk, 0);
    out.emplace_back(std::to_string(junk) + " trailing bytes", std::move(m));
  }
  return out;
}

TEST(BlobMutation, EveryDemoCellSnapshotMutantIsRefused) {
  DemoCell cell;
  cell.scenario().simulator.runFor(300_ms);
  const SnapshotBlob blob = saveSnapshot(cell.scenario());
  ASSERT_TRUE(blob.ok()) << blob.error;
  {
    DemoCell target;
    std::string error;
    ASSERT_TRUE(restoreSnapshot(target.scenario(), blob.bytes, &error)) << error;
  }
  const auto all = mutants(blob.bytes, std::strlen(kSnapshotMagic) + 1);
  ASSERT_GE(all.size(), 70u);
  for (const auto& [label, mutant] : all) {
    DemoCell target;
    std::string error;
    EXPECT_FALSE(restoreSnapshot(target.scenario(), mutant, &error)) << label;
  }
}

TEST(BlobMutation, EveryDemoCellFrbinMutantIsRefused) {
  DemoCell cell;
  cell.scenario().simulator.runFor(300_ms);
  std::ostringstream out;
  cell.scenario().ctx.telemetry().recorder().exportBinary(out);
  const std::string bytes = out.str();
  const Blob blob(bytes.begin(), bytes.end());
  const auto load = [](const Blob& b) {
    telemetry::FlightRecorder recorder;
    std::istringstream in(std::string(b.begin(), b.end()));
    return recorder.importBinary(in);
  };
  ASSERT_TRUE(load(blob));
  const auto all = mutants(blob, std::strlen("scidmz.frbin.v1") + 1);
  ASSERT_GE(all.size(), 70u);
  for (const auto& [label, mutant] : all) EXPECT_FALSE(load(mutant)) << label;
}

}  // namespace
}  // namespace scidmz::scenario
