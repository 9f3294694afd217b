// The simulated packet. A value type: payload contents are modeled only by
// size, while protocol headers carry the fields the simulation actually
// exercises (TCP sequencing/window negotiation, one-way probe timestamps).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <variant>

#include "net/address.hpp"
#include "sim/units.hpp"

namespace scidmz::net {

/// Fixed header overhead (IPv4 + TCP, no options beyond what we model).
inline constexpr sim::DataSize kTcpIpHeaderBytes = sim::DataSize::bytes(40);
/// IPv4 + UDP overhead for probe traffic.
inline constexpr sim::DataSize kUdpIpHeaderBytes = sim::DataSize::bytes(28);

/// TCP header fields the simulation models. Window advertisement follows
/// RFC 1323 semantics: a 16-bit field plus a shift negotiated via the
/// window-scale option carried on SYN segments. Middleboxes that perform
/// "flow sequence checking" can strip `windowScalePresent`, capping the
/// effective window at 65535 bytes (the Penn State failure mode).
struct TcpHeader {
  /// SACK option (RFC 2018): a received-but-not-yet-cumulative byte range
  /// [ackNo + start, ackNo + end). The model's window is at most
  /// 65535 << 14 (1 GiB), so every block a receiver can hold fits in 32-bit
  /// offsets above the cumulative ACK.
  struct SackBlock {
    std::uint32_t start = 0;
    std::uint32_t end = 0;
  };

  std::uint64_t seq = 0;    ///< First payload byte's sequence number.
  std::uint64_t ackNo = 0;  ///< Cumulative ACK (next expected byte).
  /// RFC 7323 timestamps (modeled as raw nanosecond stamps): tsVal is the
  /// sender's clock at transmission; tsEcho returns the tsVal of the
  /// segment that triggered this ACK, giving loss-proof RTT samples.
  std::uint64_t tsVal = 0;
  std::uint64_t tsEcho = 0;
  /// Up to three SACK blocks; senders build a scoreboard from them and
  /// repair multiple holes per RTT (RFC 6675-style recovery).
  std::array<SackBlock, 3> sackBlocks{};
  std::uint16_t windowField = 0;  ///< Raw 16-bit advertised window.
  std::uint8_t windowScale = 0;   ///< Shift offered in the SYN option.
  // One byte: the flags, the window-scale option bit and the SACK count.
  bool syn : 1 = false;
  bool ack : 1 = false;
  bool fin : 1 = false;
  bool rst : 1 = false;
  bool windowScalePresent : 1 = false;  ///< Option present on this SYN.
  std::uint8_t sackCount : 2 = 0;

  /// Append the absolute range [start, end). Set ackNo first. Returns false,
  /// adding nothing, when three blocks are already held or the range is not
  /// within 2^32 bytes above ackNo.
  bool addSack(std::uint64_t start, std::uint64_t end) {
    constexpr std::uint64_t kMaxOffset = 0xFFFFFFFFu;
    if (sackCount == 3 || start < ackNo || end < start || end - ackNo > kMaxOffset) return false;
    sackBlocks[sackCount++] = SackBlock{static_cast<std::uint32_t>(start - ackNo),
                                        static_cast<std::uint32_t>(end - ackNo)};
    return true;
  }
  [[nodiscard]] std::uint64_t sackStart(std::size_t i) const { return ackNo + sackBlocks[i].start; }
  [[nodiscard]] std::uint64_t sackEnd(std::size_t i) const { return ackNo + sackBlocks[i].end; }
};

/// One-way active measurement header (OWAMP-style).
struct ProbeHeader {
  std::uint32_t streamId = 0;
  std::uint64_t seqNo = 0;
  sim::SimTime sentAt;  ///< Stamped by the sender; receivers compute one-way delay.
};

/// RDMA-over-Converged-Ethernet style header (RoCE, Section 7.1): simple
/// sequencing with NACK-driven go-back-N — no congestion control, which is
/// why it needs a guaranteed-bandwidth, loss-free virtual circuit.
struct RoceHeader {
  std::uint64_t seq = 0;
  bool isNack = false;
  std::uint64_t nackSeq = 0;  ///< First missing byte, when isNack.
  bool isAck = false;
  std::uint64_t ackSeq = 0;  ///< Cumulative bytes received, when isAck.
};

using PacketBody = std::variant<std::monostate, TcpHeader, ProbeHeader, RoceHeader>;

struct Packet {
  // What every hop reads (flow key, size, TTL) leads, in the slot's first
  // cache line; the trace id, read only when tracing, trails.
  FlowKey flow;
  sim::DataSize payload = sim::DataSize::zero();
  std::uint8_t ttl = 64;
  PacketBody body;
  std::uint64_t id = 0;  ///< Globally unique per scenario, for tracing.

  [[nodiscard]] bool isTcp() const { return std::holds_alternative<TcpHeader>(body); }
  [[nodiscard]] bool isProbe() const { return std::holds_alternative<ProbeHeader>(body); }
  [[nodiscard]] bool isRoce() const { return std::holds_alternative<RoceHeader>(body); }
  [[nodiscard]] RoceHeader& roce() { return std::get<RoceHeader>(body); }
  [[nodiscard]] const RoceHeader& roce() const { return std::get<RoceHeader>(body); }
  [[nodiscard]] TcpHeader& tcp() { return std::get<TcpHeader>(body); }
  [[nodiscard]] const TcpHeader& tcp() const { return std::get<TcpHeader>(body); }
  [[nodiscard]] ProbeHeader& probe() { return std::get<ProbeHeader>(body); }
  [[nodiscard]] const ProbeHeader& probe() const { return std::get<ProbeHeader>(body); }

  /// On-the-wire size including protocol overhead.
  [[nodiscard]] sim::DataSize wireSize() const {
    return payload + (flow.proto == Protocol::kTcp ? kTcpIpHeaderBytes : kUdpIpHeaderBytes);
  }
};

// Every packet a run holds in flight costs a pool slot of this size.
static_assert(sizeof(Packet) <= 112, "a pooled packet must fit 112 bytes");

}  // namespace scidmz::net
