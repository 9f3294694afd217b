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

inline void codecTcpHeader(sim::Codec& c, TcpHeader& h) {
  c.vu64(h.seq);
  c.vu64(h.ackNo);
  c.b(h.flags.syn);
  c.b(h.flags.ack);
  c.b(h.flags.fin);
  c.b(h.flags.rst);
  c.u16(h.windowField);
  c.u8(h.windowScale);
  c.b(h.windowScalePresent);
  c.vu64(h.tsVal);
  c.vu64(h.tsEcho);
  c.vu64(h.sackHint);
  c.u8(h.sackCount);
  for (auto& block : h.sackBlocks) {
    c.vu64(block.start);
    c.vu64(block.end);
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
