// Delay line: the one way the data path holds a packet until a time — a
// link direction's propagation, an interface's serialization, a firewall
// engine's inspection, a switch's forwarding latency.
//
// Each packet is an {at, seq, PacketRef} record, seq reserved where a
// per-packet schedule() would have drawn it. The line owns one sim::Timer,
// armed at the earliest record's key (Simulator::arm()), so pop order is
// what one event per packet would give; no closure is ever scheduled. A
// push lands at the back (O(1) for FIFO owners) and moves forward past
// later records: a store-and-forward switch's short frame overtakes a long
// one and re-keys the timer in place. When the timer fires, the line pops
// its front and re-arms for the next record before handing the packet over.
// No event owns a packet; the line is also the snapshot record. The
// Simulator must outlive the line, which disarms its timer when destroyed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "net/codec.hpp"
#include "net/context.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/codec.hpp"

namespace scidmz::net {

/// One held packet: its due time, its event key and its handle.
struct DelayRecord {
  sim::SimTime at;
  std::uint64_t seq = 0;
  PacketRef packet;
};
static_assert(sizeof(DelayRecord) == 24, "a held packet costs 24 bytes of line");

/// Packets held until their (at, seq) key, then handed to `owner.*Fire` in
/// key order. Arms into, and restores from the pool of, `ctx`. `source`
/// names the line's layer in the profiler ("net.link", "net.tx", ...).
template <typename Owner, void (Owner::*Fire)(PacketRef)>
class DelayLine {
 public:
  DelayLine(Context& ctx, Owner& owner, const char* source)
      : ctx_(ctx), owner_(owner), timer_{this, &DelayLine::fireThunk, source} {}
  ~DelayLine() { ctx_.sim().disarm(timer_); }
  DelayLine(const DelayLine&) = delete;  // the timer points at `this`
  DelayLine& operator=(const DelayLine&) = delete;

  [[nodiscard]] bool empty() const { return line_.empty(); }
  [[nodiscard]] std::size_t size() const { return line_.size(); }

  /// Hold `packet` until `at` (clamped to now, like Simulator::scheduleAt),
  /// keyed as if scheduled now.
  void push(sim::SimTime at, PacketRef packet) {
    if (at < ctx_.now()) at = ctx_.now();
    push(at, ctx_.sim().reserveSeq(), std::move(packet));
  }

  /// Hold `packet` until a key reserved elsewhere (a boundary channel's).
  void push(sim::SimTime at, std::uint64_t seq, PacketRef packet) {
    line_.push(DelayRecord{at, seq, std::move(packet)});
    std::size_t i = line_.size() - 1;
    for (; i > 0 && before(line_[i], line_[i - 1]); --i) std::swap(line_[i], line_[i - 1]);
    if (i == 0) arm();  // a new front: arms, or re-keys an overtaken one
  }

  /// Snapshot/restore: the records head-first, each with its key. A restore
  /// replaces the contents, refuses a count the blob cannot hold and a line
  /// that is not strictly increasing in (at, seq), and re-arms the timer at
  /// the head (disarms it for an empty or refused line). Returns the
  /// pending events claimed: 1 for a non-empty line.
  std::uint64_t serialize(sim::Codec& c) {
    std::uint64_t n = line_.size();
    c.count(n, kMinRecordBits);
    if (c.writing()) {
      for (std::size_t i = 0; i < line_.size(); ++i) codecRecord(c, line_[i]);
      return n != 0 ? 1 : 0;
    }
    line_.clear();
    for (std::uint64_t i = 0; i < n && c.ok(); ++i) {
      DelayRecord rec{sim::SimTime::zero(), 0, ctx_.pool().acquire()};
      codecRecord(c, rec);
      if (!line_.empty() && !before(line_.back(), rec)) c.reader().markFailed();
      line_.push(std::move(rec));
    }
    if (!c.ok() || line_.empty()) {
      ctx_.sim().disarm(timer_);
      return 0;
    }
    arm();
    return 1;
  }

 private:
  /// A record on the wire: its time and seq at a byte each, then a packet.
  static constexpr std::uint64_t kMinRecordBits = 2 * 8 + kMinPacketBits;

  static bool before(const DelayRecord& a, const DelayRecord& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  static void codecRecord(sim::Codec& c, DelayRecord& rec) {
    sim::codecTime(c, rec.at);
    c.vu64(rec.seq);
    codecPacket(c, *rec.packet);
  }

  void arm() {
    const DelayRecord& head = line_.front();
    ctx_.sim().arm(timer_, head.at, head.seq);
  }

  static void fireThunk(void* self) { static_cast<DelayLine*>(self)->fire(); }

  /// Timer fired: pop the front, re-arm for the next record and prefetch its
  /// packet (cold by the time it is due), hand this packet over.
  void fire() {
    PacketRef packet = std::move(line_.pop().packet);
    if (!line_.empty()) {
      arm();
      __builtin_prefetch(line_.front().packet.get());
    }
    (owner_.*Fire)(std::move(packet));
  }

  Context& ctx_;
  Owner& owner_;
  detail::Ring<DelayRecord> line_;
  sim::Timer timer_;
};

}  // namespace scidmz::net
