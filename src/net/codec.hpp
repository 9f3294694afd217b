// Codec helpers for the net layer's value types: flow keys and whole
// packets. These are the building blocks of both the snapshot format
// (delay-line records, queue contents) and the binary flight-recorder
// export; keeping them in one header guarantees every consumer agrees on
// the wire layout.
#pragma once

#include "net/packet.hpp"
#include "sim/codec.hpp"

namespace scidmz::net {

inline void codecFlowKey(sim::Codec& c, FlowKey& k) {
  std::uint32_t src = k.src.value();
  std::uint32_t dst = k.dst.value();
  c.u32(src);
  c.u32(dst);
  c.u16(k.srcPort);
  c.u16(k.dstPort);
  c.vint(k.proto);
  if (!c.writing()) {
    k.src = Address{src};
    k.dst = Address{dst};
  }
}

/// The flags, the window-scale option bit and the SACK count travel as one
/// byte; each SACK block as its two offsets above ackNo. A decoded byte with
/// its top bit set or an offset past 32 bits is refused.
inline void codecTcpHeader(sim::Codec& c, TcpHeader& h) {
  c.vu64(h.seq);
  c.vu64(h.ackNo);
  auto bits = static_cast<std::uint8_t>(h.syn | h.ack << 1 | h.fin << 2 | h.rst << 3 |
                                        h.windowScalePresent << 4 | h.sackCount << 5);
  c.u8(bits);
  c.u16(h.windowField);
  c.u8(h.windowScale);
  c.vu64(h.tsVal);
  c.vu64(h.tsEcho);
  if (!c.writing()) {
    if (bits >> 7 != 0) c.reader().markFailed();
    h.syn = bits & 1;
    h.ack = bits >> 1 & 1;
    h.fin = bits >> 2 & 1;
    h.rst = bits >> 3 & 1;
    h.windowScalePresent = bits >> 4 & 1;
    h.sackCount = bits >> 5 & 3;
  }
  for (std::size_t i = 0; i < h.sackCount; ++i) {
    std::uint64_t start = h.sackBlocks[i].start;
    std::uint64_t end = h.sackBlocks[i].end;
    c.vu64(start);
    c.vu64(end);
    if (start > 0xFFFFFFFFu || end > 0xFFFFFFFFu) {
      c.reader().markFailed();
      return;
    }
    h.sackBlocks[i] = {static_cast<std::uint32_t>(start), static_cast<std::uint32_t>(end)};
  }
}

inline void codecProbeHeader(sim::Codec& c, ProbeHeader& h) {
  c.vu32(h.streamId);
  c.vu64(h.seqNo);
  sim::codecTime(c, h.sentAt);
}

inline void codecRoceHeader(sim::Codec& c, RoceHeader& h) {
  c.vu64(h.seq);
  c.b(h.isNack);
  c.vu64(h.nackSeq);
  c.b(h.isAck);
  c.vu64(h.ackSeq);
}

/// The fewest bits codecPacket() writes: a flow key's 104, the 2-bit body
/// tag, and the payload size, TTL and id at a byte each.
inline constexpr std::uint64_t kMinPacketBits = 104 + 2 + 3 * 8;

/// Whole-packet codec: the variant body costs two bits of tag plus only
/// the fields of the alternative actually held.
inline void codecPacket(sim::Codec& c, Packet& p) {
  codecFlowKey(c, p.flow);
  std::uint8_t tag = static_cast<std::uint8_t>(p.body.index());
  if (c.writing()) {
    c.writer().writeBits(tag, 2);
  } else {
    tag = static_cast<std::uint8_t>(c.reader().readBits(2));
    switch (tag) {
      case 1: p.body = TcpHeader{}; break;
      case 2: p.body = ProbeHeader{}; break;
      case 3: p.body = RoceHeader{}; break;
      default: p.body = std::monostate{}; break;
    }
  }
  switch (tag) {
    case 1: codecTcpHeader(c, std::get<TcpHeader>(p.body)); break;
    case 2: codecProbeHeader(c, std::get<ProbeHeader>(p.body)); break;
    case 3: codecRoceHeader(c, std::get<RoceHeader>(p.body)); break;
    default: break;
  }
  sim::codecSize(c, p.payload);
  c.u8(p.ttl);
  c.vu64(p.id);
}

}  // namespace scidmz::net
