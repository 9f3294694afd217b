// What a packet costs while it waits: the pooled slot, the handle that
// carries it and a delay line's record. Plus the compact SACK encoding those
// sizes rely on: blocks as 32-bit offsets above the cumulative ACK, which
// hold every block the model's largest window (65535 << 14) can produce.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/codec.hpp"
#include "net/delay_line.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/codec.hpp"

namespace scidmz::net {
namespace {

constexpr std::uint64_t kLargestWindow = std::uint64_t{65535} << 14;

std::ptrdiff_t offsetIn(const Packet& p, const void* field) {
  return static_cast<const std::byte*>(field) - reinterpret_cast<const std::byte*>(&p);
}

TEST(PacketLayout, PacketHandleAndDelayRecordSizes) {
  EXPECT_LE(sizeof(Packet), 112u);
  EXPECT_EQ(sizeof(PacketRef), 8u);
  EXPECT_EQ(sizeof(DelayRecord), 24u);
  EXPECT_LE(PacketPool::kHeaderBytes + PacketPool::kSlabPackets * sizeof(Packet),
            PacketPool::kSlabBytes);
  // What every hop reads sits in the slot's first cache line.
  const Packet p;
  EXPECT_LE(offsetIn(p, &p.flow) + static_cast<std::ptrdiff_t>(sizeof(p.flow)), 64);
  EXPECT_LE(offsetIn(p, &p.payload) + static_cast<std::ptrdiff_t>(sizeof(p.payload)), 64);
  EXPECT_LT(offsetIn(p, &p.ttl), 64);
}

TEST(PacketLayout, EveryHandleReturnsToItsOwnPoolAcrossSlabs) {
  // Two pools, three slabs each, released interleaved and out of order: a
  // handle finds its pool through its slab, not through anything it carries.
  PacketPool a;
  PacketPool b;
  std::vector<PacketRef> held;
  const std::size_t n = 3 * PacketPool::kSlabPackets;
  for (std::size_t i = 0; i < n; ++i) {
    held.push_back(a.acquire());
    held.push_back(b.acquire());
  }
  EXPECT_EQ(a.liveCount(), n);
  EXPECT_EQ(b.liveCount(), n);
  for (std::size_t i = 0; i < held.size(); i += 4) held[i].reset();  // every other one of a's
  EXPECT_EQ(a.liveCount(), n / 2);
  EXPECT_EQ(b.liveCount(), n);
  held.clear();
  EXPECT_EQ(a.liveCount(), 0u);
  EXPECT_EQ(b.liveCount(), 0u);
  EXPECT_EQ(a.slotCount(), n);
  EXPECT_EQ(b.slotCount(), n);
}

TEST(SackBlocks, LargestWindowRoundTripsThroughHeaderAndCodec) {
  TcpHeader h;
  h.ack = true;
  h.ackNo = (std::uint64_t{1} << 40) + 7;
  // The widest block a receiver can hold: the whole window but its first
  // segment, and a one-byte block at the very start.
  ASSERT_TRUE(h.addSack(h.ackNo + 9000, h.ackNo + kLargestWindow));
  ASSERT_TRUE(h.addSack(h.ackNo, h.ackNo + 1));
  // Not sent: below the cumulative ACK, or past 32-bit offsets.
  EXPECT_FALSE(h.addSack(h.ackNo - 1, h.ackNo + 10));
  EXPECT_FALSE(h.addSack(h.ackNo + 10, h.ackNo + (std::uint64_t{1} << 32)));
  ASSERT_TRUE(h.addSack(h.ackNo + 0xFFFFFFF0u, h.ackNo + 0xFFFFFFFFu));
  EXPECT_FALSE(h.addSack(h.ackNo + 20, h.ackNo + 30));  // three held already
  ASSERT_EQ(h.sackCount, 3);
  EXPECT_EQ(h.sackStart(0), h.ackNo + 9000);
  EXPECT_EQ(h.sackEnd(0), h.ackNo + kLargestWindow);
  EXPECT_EQ(h.sackStart(1), h.ackNo);
  EXPECT_EQ(h.sackEnd(1), h.ackNo + 1);
  EXPECT_EQ(h.sackEnd(2), h.ackNo + 0xFFFFFFFFu);

  Packet out;
  out.body = h;
  out.payload = sim::DataSize::bytes(0);
  sim::BitWriter w;
  sim::Codec wc{w};
  codecPacket(wc, out);
  const std::vector<std::uint8_t> bytes = w.take();

  sim::BitReader r{bytes.data(), bytes.size()};
  sim::Codec rc{r};
  Packet in;
  codecPacket(rc, in);
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(in.isTcp());
  const TcpHeader& got = in.tcp();
  EXPECT_TRUE(got.ack);
  EXPECT_FALSE(got.syn);
  ASSERT_EQ(got.sackCount, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got.sackStart(i), h.sackStart(i));
    EXPECT_EQ(got.sackEnd(i), h.sackEnd(i));
  }
}

/// A TCP header as the codec lays it out, with a raw flag byte and raw
/// SACK offsets.
std::vector<std::uint8_t> tcpHeaderBlob(std::uint8_t bits, std::uint64_t start,
                                        std::uint64_t end) {
  sim::BitWriter w;
  w.writeVarint(1000);  // seq
  w.writeVarint(5000);  // ackNo
  w.writeU8(bits);
  w.writeU16(512);  // windowField
  w.writeU8(14);    // windowScale
  w.writeVarint(1);  // tsVal
  w.writeVarint(2);  // tsEcho
  for (int i = 0; i < (bits >> 5 & 3); ++i) {
    w.writeVarint(start);
    w.writeVarint(end);
  }
  return w.take();
}

bool decodes(const std::vector<std::uint8_t>& blob) {
  sim::BitReader r{blob.data(), blob.size()};
  sim::Codec c{r};
  TcpHeader h;
  codecTcpHeader(c, h);
  return c.ok();
}

TEST(SackBlocks, DecodedBlockThatDoesNotFitIsRefused) {
  constexpr std::uint8_t kAckOneBlock = 0x02 | 1 << 5;
  constexpr std::uint8_t kAckThreeBlocks = 0x02 | 3 << 5;
  EXPECT_TRUE(decodes(tcpHeaderBlob(kAckOneBlock, 100, kLargestWindow)));
  EXPECT_TRUE(decodes(tcpHeaderBlob(kAckThreeBlocks, 0, 0xFFFFFFFFu)));
  EXPECT_FALSE(decodes(tcpHeaderBlob(kAckOneBlock, 100, std::uint64_t{1} << 32)));
  EXPECT_FALSE(decodes(tcpHeaderBlob(kAckOneBlock, std::uint64_t{1} << 32, 100)));
  EXPECT_FALSE(decodes(tcpHeaderBlob(0x80 | kAckOneBlock, 100, 200)));  // no such flag
}

}  // namespace
}  // namespace scidmz::net
