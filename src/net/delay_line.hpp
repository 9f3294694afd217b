// Delay line: the one way the data path holds a packet until a time — a
// link direction's propagation, an interface's serialization, a firewall
// engine's inspection, a switch's forwarding latency.
//
// Each packet is an {at, seq, PacketRef} record, seq reserved where a
// per-packet schedule() would have drawn it; only the earliest record is
// armed, under its own key, so pop order is what one event per packet
// would give. A push lands at the back (O(1) for FIFO owners) and moves
// forward past later records: a store-and-forward switch's short frame
// overtakes a long one, cancelling the superseded head event. No event
// closure owns a packet; the line is also the snapshot record.
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

/// Packets held until their (at, seq) key, then handed to `owner.*Fire` in
/// key order. Arms into, and restores from the pool of, `ctx`.
template <typename Owner, void (Owner::*Fire)(PacketRef)>
class DelayLine {
 public:
  DelayLine(Context& ctx, Owner& owner) : ctx_(ctx), owner_(owner) {}
  DelayLine(const DelayLine&) = delete;  // the armed head event captures `this`
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
    line_.push(Record{at, seq, std::move(packet)});
    std::size_t i = line_.size() - 1;
    for (; i > 0 && before(line_[i], line_[i - 1]); --i) std::swap(line_[i], line_[i - 1]);
    if (i != 0) return;
    if (line_.size() > 1) ctx_.sim().cancel(head_);  // overtaken: re-arm at the new front
    arm();
  }

  /// Snapshot/restore: the records head-first, each with its key. A restore
  /// replaces the contents, refuses a line that is not strictly increasing
  /// in (at, seq), and re-arms the head. Returns the pending events
  /// claimed: 1 for a non-empty line.
  std::uint64_t serialize(sim::Codec& c) {
    std::uint64_t n = line_.size();
    c.vu64(n);
    if (c.writing()) {
      for (std::size_t i = 0; i < line_.size(); ++i) codecRecord(c, line_[i]);
      return n != 0 ? 1 : 0;
    }
    line_.clear();
    for (std::uint64_t i = 0; i < n && c.ok(); ++i) {
      Record rec{sim::SimTime::zero(), 0, ctx_.pool().acquire()};
      codecRecord(c, rec);
      if (!line_.empty() && !before(line_.back(), rec)) c.reader().markFailed();
      line_.push(std::move(rec));
    }
    if (!c.ok() || line_.empty()) return 0;
    arm();
    return 1;
  }

 private:
  struct Record {
    sim::SimTime at;
    std::uint64_t seq = 0;
    PacketRef packet;
  };

  static bool before(const Record& a, const Record& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  static void codecRecord(sim::Codec& c, Record& rec) {
    sim::codecTime(c, rec.at);
    c.vu64(rec.seq);
    codecPacket(c, *rec.packet);
  }

  void arm() {
    const Record& head = line_.front();
    head_ = ctx_.sim().restoreSchedule(head.at, head.seq, [this] { fire(); });
  }

  /// Head event: pop the front, re-arm the next record, hand the packet over.
  void fire() {
    PacketRef packet = std::move(line_.pop().packet);
    if (!line_.empty()) arm();
    (owner_.*Fire)(std::move(packet));
  }

  Context& ctx_;
  Owner& owner_;
  detail::Ring<Record> line_;
  sim::EventId head_;
};

}  // namespace scidmz::net
