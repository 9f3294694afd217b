#include "sim/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace scidmz::sim {
namespace {

TEST(Codec, BitsRoundTripAtArbitraryOffsets) {
  BitWriter w;
  w.writeBits(0b1, 1);
  w.writeBits(0b101, 3);
  w.writeBits(0xABCD, 16);
  w.writeBits(0x0123456789ABCDEFull, 64);
  w.writeBits(0x3F, 6);

  BitReader r(w.bytes().data(), w.byteSize());
  EXPECT_EQ(r.readBits(1), 0b1u);
  EXPECT_EQ(r.readBits(3), 0b101u);
  EXPECT_EQ(r.readBits(16), 0xABCDu);
  EXPECT_EQ(r.readBits(64), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.readBits(6), 0x3Fu);
  EXPECT_TRUE(r.ok());
}

TEST(Codec, BoolCostsOneBit) {
  BitWriter w;
  for (int i = 0; i < 8; ++i) w.writeBool(i % 2 == 0);
  EXPECT_EQ(w.byteSize(), 1u);
  BitReader r(w.bytes().data(), w.byteSize());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(r.readBool(), i % 2 == 0);
}

TEST(Codec, VarintRoundTripsBoundaries) {
  const std::uint64_t values[] = {0,
                                  1,
                                  0x7F,
                                  0x80,
                                  0x3FFF,
                                  0x4000,
                                  1234567890123ull,
                                  std::numeric_limits<std::uint64_t>::max()};
  BitWriter w;
  for (const auto v : values) w.writeVarint(v);
  BitReader r(w.bytes().data(), w.byteSize());
  for (const auto v : values) EXPECT_EQ(r.readVarint(), v);
  EXPECT_TRUE(r.ok());
}

TEST(Codec, ZigzagRoundTripsSigned) {
  const std::int64_t values[] = {0, -1, 1, -64, 64, std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  BitWriter w;
  for (const auto v : values) w.writeZigzag(v);
  BitReader r(w.bytes().data(), w.byteSize());
  for (const auto v : values) EXPECT_EQ(r.readZigzag(), v);
}

TEST(Codec, DoubleIsBitExact) {
  const double values[] = {0.0, -0.0, 1.0 / 3.0, 6.02214076e23, -1e-300,
                           std::numeric_limits<double>::infinity()};
  BitWriter w;
  w.writeBool(true);  // misalign on purpose
  for (const auto v : values) w.writeF64(v);
  const double nan = std::nan("");
  w.writeF64(nan);

  BitReader r(w.bytes().data(), w.byteSize());
  EXPECT_TRUE(r.readBool());
  for (const auto v : values) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.readF64()), std::bit_cast<std::uint64_t>(v));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.readF64()), std::bit_cast<std::uint64_t>(nan));
}

TEST(Codec, StringRoundTrip) {
  BitWriter w;
  w.writeBool(false);
  w.writeString("dtn0/if0");
  w.writeString("");
  w.writeString(std::string(300, 'x'));
  BitReader r(w.bytes().data(), w.byteSize());
  EXPECT_FALSE(r.readBool());
  EXPECT_EQ(r.readString(), "dtn0/if0");
  EXPECT_EQ(r.readString(), "");
  EXPECT_EQ(r.readString(), std::string(300, 'x'));
}

TEST(Codec, StringLengthPastTheEndFailsWithoutAllocating) {
  // 2^61 + 1 times 8 wraps to 8, which a multiplying check would let
  // through to reserve 2^61 bytes.
  for (const std::uint64_t n : {std::uint64_t{1} << 61, (std::uint64_t{1} << 61) + 1,
                                std::numeric_limits<std::uint64_t>::max()}) {
    BitWriter w;
    w.writeVarint(n);
    w.writeU64(0);
    BitReader r(w.bytes().data(), w.byteSize());
    EXPECT_EQ(r.readString(), "") << n;
    EXPECT_TRUE(r.fail()) << n;
  }
}

TEST(Codec, ReadPastEndSetsStickyFail) {
  BitWriter w;
  w.writeU8(42);
  BitReader r(w.bytes().data(), w.byteSize());
  EXPECT_EQ(r.readU8(), 42);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.readU32(), 0u);
  EXPECT_TRUE(r.fail());
  EXPECT_EQ(r.readU8(), 0u);  // stays failed and keeps returning zeros
  EXPECT_TRUE(r.fail());
}

TEST(Codec, SectionRoundTripAndSkip) {
  BitWriter w;
  const auto s1 = w.beginSection("AAAA");
  w.writeVarint(7);
  w.writeBool(true);
  w.endSection(s1);
  const auto s2 = w.beginSection("BBBB");
  w.writeString("payload");
  w.endSection(s2);

  // Reader that decodes both sections.
  {
    BitReader r(w.bytes().data(), w.byteSize());
    const std::uint32_t len1 = r.enterSection("AAAA");
    EXPECT_GT(len1, 0u);
    EXPECT_EQ(r.readVarint(), 7u);
    EXPECT_TRUE(r.readBool());
    const std::uint32_t len2 = r.enterSection("BBBB");
    EXPECT_GT(len2, 0u);
    EXPECT_EQ(r.readString(), "payload");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
  }

  // Reader that skips the first section wholesale.
  {
    BitReader r(w.bytes().data(), w.byteSize());
    const std::uint32_t len1 = r.enterSection("AAAA");
    r.skipBytes(len1);
    EXPECT_GT(r.enterSection("BBBB"), 0u);
    EXPECT_EQ(r.readString(), "payload");
    EXPECT_TRUE(r.ok());
  }

  // Fourcc mismatch fails loudly.
  {
    BitReader r(w.bytes().data(), w.byteSize());
    EXPECT_EQ(r.enterSection("XXXX"), 0u);
    EXPECT_TRUE(r.fail());
  }
}

TEST(Codec, DualModeArchiveRoundTrip) {
  struct Blob {
    bool flag = false;
    std::uint32_t id = 0;
    std::uint64_t count = 0;
    std::int64_t delta = 0;
    double rate = 0.0;
    std::string name;
    void serialize(Codec& c) {
      c.b(flag);
      c.vu32(id);
      c.vu64(count);
      c.vi64(delta);
      c.f64(rate);
      c.str(name);
    }
  };

  Blob a;
  a.flag = true;
  a.id = 17;
  a.count = 987654321;
  a.delta = -42;
  a.rate = 9.8e9;
  a.name = "fig1";

  BitWriter w;
  Codec cw(w);
  EXPECT_TRUE(cw.writing());
  a.serialize(cw);

  Blob b;
  BitReader r(w.bytes().data(), w.byteSize());
  Codec cr(r);
  EXPECT_FALSE(cr.writing());
  b.serialize(cr);
  EXPECT_TRUE(cr.ok());

  EXPECT_EQ(b.flag, a.flag);
  EXPECT_EQ(b.id, a.id);
  EXPECT_EQ(b.count, a.count);
  EXPECT_EQ(b.delta, a.delta);
  EXPECT_EQ(b.rate, a.rate);
  EXPECT_EQ(b.name, a.name);
}

TEST(Codec, MagicHeaderRoundTripAndMismatch) {
  BitWriter w;
  writeMagic(w, "scidmz.snap.v1");
  w.writeVarint(99);
  {
    BitReader r(w.bytes().data(), w.byteSize());
    EXPECT_TRUE(readMagic(r, "scidmz.snap.v1"));
    EXPECT_EQ(r.readVarint(), 99u);
  }
  {
    BitReader r(w.bytes().data(), w.byteSize());
    EXPECT_FALSE(readMagic(r, "scidmz.frbin.v1"));
  }
  {
    BitReader r(w.bytes().data(), 4);  // truncated
    EXPECT_FALSE(readMagic(r, "scidmz.snap.v1"));
  }
}

TEST(Codec, VarintIsSmallerThanFixedForSmallValues) {
  BitWriter fixed;
  BitWriter packed;
  for (std::uint64_t v = 0; v < 100; ++v) {
    fixed.writeU64(v);
    packed.writeVarint(v);
  }
  EXPECT_LT(packed.byteSize(), fixed.byteSize() / 4);
}

}  // namespace
}  // namespace scidmz::sim
