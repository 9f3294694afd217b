// Binary flight-recorder export (scidmz.frbin.v1): round-trips to the
// exact JSONL the source recorder would emit, rejects malformed blobs, and
// is substantially smaller than the JSONL for realistic event mixes.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "sim/codec.hpp"
#include "telemetry/flight_recorder.hpp"

namespace scidmz::telemetry {
namespace {

FlightEvent makeEvent(std::int64_t tNs, std::uint64_t pkt, std::uint32_t point,
                      FlightEventKind kind) {
  FlightEvent e;
  e.at = sim::SimTime::fromNs(tNs);
  e.packetId = pkt;
  e.aux = pkt * 1448;
  e.aux2 = 4096 + (pkt % 64) * 1500;
  e.flow.src = 0x0a000001;
  e.flow.dst = 0x0a000002;
  e.flow.srcPort = static_cast<std::uint16_t>(40000 + pkt % 16);
  e.flow.dstPort = 5001;
  e.flow.proto = 6;
  e.bytes = 1500;
  e.point = point;
  e.kind = kind;
  return e;
}

FlightRecorder populated(std::size_t events) {
  FlightRecorder rec(1 << 16);
  const std::uint32_t p0 = rec.internPoint("dtn0/if0");
  const std::uint32_t p1 = rec.internPoint("sw0/egress");
  for (std::size_t i = 0; i < events; ++i) {
    const auto kind = i % 97 == 0    ? FlightEventKind::kDrop
                      : i % 3 == 0   ? FlightEventKind::kDequeue
                      : i % 3 == 1   ? FlightEventKind::kEnqueue
                                     : FlightEventKind::kDeliver;
    rec.record(makeEvent(static_cast<std::int64_t>(1000 + i * 1200), i,
                         i % 2 == 0 ? p0 : p1, kind));
  }
  return rec;
}

std::string jsonlOf(const FlightRecorder& rec) {
  std::ostringstream out;
  rec.exportJsonl(out);
  return out.str();
}

TEST(FrbinExport, PointCountPastTheEndFailsWithoutAllocating) {
  for (const std::uint64_t n : {std::uint64_t{1} << 40, (std::uint64_t{1} << 61) + 1,
                                std::numeric_limits<std::uint64_t>::max()}) {
    sim::BitWriter w;
    sim::writeMagic(w, "scidmz.frbin.v1");
    const auto cookie = w.beginSection("PTS ");
    w.writeVarint(n);
    w.writeU64(0);
    w.endSection(cookie);
    const auto bytes = w.take();
    std::istringstream in(std::string(bytes.begin(), bytes.end()));
    FlightRecorder rec(4);
    EXPECT_FALSE(rec.importBinary(in)) << n;
    EXPECT_EQ(rec.pointCount(), 0u) << n;
  }
}

TEST(FrbinExport, RoundTripsToIdenticalJsonl) {
  const FlightRecorder rec = populated(5000);
  std::ostringstream bin;
  rec.exportBinary(bin);

  FlightRecorder loaded(4);  // capacity is raised by the import
  std::istringstream in(bin.str());
  ASSERT_TRUE(loaded.importBinary(in));
  EXPECT_EQ(loaded.size(), rec.size());
  EXPECT_EQ(loaded.pointCount(), rec.pointCount());
  EXPECT_EQ(jsonlOf(loaded), jsonlOf(rec));
}

TEST(FrbinExport, IsMuchSmallerThanJsonl) {
  const FlightRecorder rec = populated(5000);
  std::ostringstream bin;
  rec.exportBinary(bin);
  const std::size_t binBytes = bin.str().size();
  const std::size_t jsonBytes = jsonlOf(rec).size();
  ASSERT_GT(binBytes, 0u);
  // The satellite target is >= 8x on the soft_failure_linecard trace; this
  // synthetic mix should clear the same bar.
  EXPECT_GE(jsonBytes / binBytes, 8u)
      << "jsonl " << jsonBytes << " bytes vs frbin " << binBytes << " bytes";
}

TEST(FrbinExport, RejectsGarbageAndTruncation) {
  FlightRecorder rec(16);
  std::istringstream garbage("not a frbin blob at all");
  EXPECT_FALSE(rec.importBinary(garbage));
  EXPECT_EQ(rec.size(), 0u);

  const FlightRecorder source = populated(100);
  std::ostringstream bin;
  source.exportBinary(bin);
  const std::string whole = bin.str();
  std::istringstream truncated(whole.substr(0, whole.size() / 2));
  EXPECT_FALSE(rec.importBinary(truncated));
  EXPECT_EQ(rec.size(), 0u);
}

TEST(FrbinExport, EmptyRecorderRoundTrips) {
  FlightRecorder rec(8);
  std::ostringstream bin;
  rec.exportBinary(bin);
  FlightRecorder loaded(8);
  std::istringstream in(bin.str());
  ASSERT_TRUE(loaded.importBinary(in));
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(jsonlOf(loaded), jsonlOf(rec));
}

}  // namespace
}  // namespace scidmz::telemetry
