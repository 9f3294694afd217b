// Discrete-event scheduler core.
//
// Events are (time, sequence) keys served from a 4-ary min-heap, with the
// insertion sequence as a tie-break so simultaneous events fire in the order
// they were scheduled — a requirement for deterministic replay. Callbacks
// live in a side slot table with stable addresses, so heap sifts move
// 24-byte keys instead of whole closures and the schedule path performs no
// allocation for common capture sizes (see sim/callback.hpp).
//
// A hierarchical timing wheel (sim/timing_wheel.hpp) fronts the heap: the
// dominant periodic and far-future timers — probe cadences, pacing ticks,
// RTOs, telemetry sampling — park in O(1) wheel buckets and only enter the
// heap when their bucket cascades, so the heap stays shallow (roughly one
// bucket's worth of events plus the sub-microsecond datapath events, which
// bypass the wheel entirely). Entries keep their original (time, sequence)
// keys through the cascade, and the queue cascades until the heap front is
// provably the global minimum, so pop order — and therefore every golden
// table — is byte-identical to a heap-only queue.
//
// A time-ordered line of pending work (net::DelayLine: link directions,
// interface tx, firewall engines, switch pipelines) needs one entry, not one
// per item: each item reserves its key (reserveSeq()) and only the line's
// earliest item is armed under it (restoreSchedule()).
//
// Cancellation is an O(1) tombstone write through a slot/generation handle:
// the EventId encodes (slot, generation), a fired or cancelled event bumps
// its slot's generation, and any stale handle is rejected exactly — no
// auxiliary cancelled-set, no drift in the live-event accounting. Tombstoned
// entries are reclaimed when they surface or cascade, or in bulk — across
// the heap AND the wheel buckets — when they outnumber live entries.
//
// Not thread-safe by design: the simulator is a single logical thread of
// control. Parallelism lives at the sweep level (sim/sweep.hpp), where
// independent Simulator instances run one per scenario cell.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/timing_wheel.hpp"
#include "sim/units.hpp"

namespace scidmz::sim {

/// Opaque handle to a scheduled event, usable for cancellation.
struct EventId {
  std::uint64_t value = 0;
  constexpr bool operator==(const EventId&) const = default;
  [[nodiscard]] constexpr bool valid() const { return value != 0; }
};

/// A pending event's ordering key, exposed for snapshot/restore: the
/// (time, sequence) pair is the event's identity across a serialization
/// boundary — restoring with the original key reproduces pop order exactly,
/// no matter what order components re-arm in.
struct EventKey {
  SimTime at;
  std::uint64_t seq = 0;
  bool valid = false;
};

/// Time-ordered event queue.
class EventQueue {
 public:
  /// Sized so the common closures — a `this` (or a few references) plus a
  /// handful of scalars — stay inline. The data path's closures capture
  /// only their net::DelayLine, and no callback captures a Packet by value,
  /// so slots are 64 bytes rather than the 192 a by-value Packet needed.
  using Callback = SmallCallback<64>;

  /// Schedule `cb` at absolute time `at`. Returns a cancellation handle.
  /// Templated so the closure is constructed directly in its slot.
  template <typename F>
  EventId schedule(SimTime at, F&& cb) {
    return restoreSchedule(at, reserveSeq(), std::forward<F>(cb));
  }

  /// Allocate the next sequence number without scheduling anything: the
  /// key schedule() would have drawn at this moment, to arm later with
  /// restoreSchedule(). Pop order is then as if it had been scheduled now.
  std::uint64_t reserveSeq() { return ++next_seq_; }

  /// Cancel a previously scheduled event. Cancelling an already-fired,
  /// already-cancelled, or invalid handle is a harmless no-op: the slot's
  /// generation no longer matches, so accounting is untouched.
  void cancel(EventId id) {
    if (!id.valid()) return;
    const std::uint32_t slot = unpackSlot(id.value);
    if (slot >= slots_.size()) return;
    Slot& s = slots_[slot];
    if (!s.active || s.tombstone || s.generation != unpackGeneration(id.value)) return;
    s.tombstone = true;
    s.cb.reset();  // release captured resources eagerly
    --live_;
    ++tombstones_;
    if (tombstones_ > 64 && tombstones_ > live_) compact();
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the next live event; SimTime::max() when empty.
  [[nodiscard]] SimTime nextTime() {
    ensureFront();
    return heap_.empty() ? SimTime::max() : heap_.front().at;
  }

  /// Pop the next live event. Precondition: !empty().
  struct Popped {
    SimTime at;
    Callback cb;
  };
  Popped pop() {
    ensureFront();
    const HeapEntry top = heap_.front();
    heapPopFront();
    // Keep an idle wheel's base abreast of simulated time, so near-now
    // schedules during heap-only stretches are rejected by park() instead
    // of landing in a spuriously coarse bucket. No-op unless empty.
    wheel_.advanceBase(top.at.ns());
    Popped out{top.at, std::move(slots_[top.slot].cb)};
    releaseSlot(top.slot);
    --live_;
    return out;
  }

  /// Drop everything (used when tearing a simulation down early). Slots are
  /// released, not destroyed, so handles issued before clear() stay stale.
  void clear() {
    for (const HeapEntry& e : heap_) {
      if (slots_[e.slot].tombstone) --tombstones_;
      releaseSlot(e.slot);
    }
    wheel_.drain([this](const HeapEntry& e) {
      if (slots_[e.slot].tombstone) --tombstones_;
      releaseSlot(e.slot);
    });
    heap_.clear();
    live_ = 0;
  }

  [[nodiscard]] std::uint64_t scheduledTotal() const { return next_seq_; }

  /// The (time, sequence) key of a pending event, for snapshotting. Returns
  /// an invalid key for fired/cancelled/stale handles. O(pending) — scans
  /// the heap and the wheel buckets; snapshots are rare, so the slot table
  /// carries no extra per-event bytes on the schedule hot path.
  [[nodiscard]] EventKey eventKey(EventId id) const {
    if (!id.valid()) return {};
    const std::uint32_t slot = unpackSlot(id.value);
    if (slot >= slots_.size()) return {};
    const Slot& s = slots_[slot];
    if (!s.active || s.tombstone || s.generation != unpackGeneration(id.value)) return {};
    for (const HeapEntry& e : heap_) {
      if (e.slot == slot) return {e.at, e.seq, true};
    }
    EventKey found;
    wheel_.forEach([&](const HeapEntry& e) {
      if (e.slot == slot) found = {e.at, e.seq, true};
    });
    return found;
  }

  /// Schedule under an already-allocated (time, sequence) key: a key from
  /// reserveSeq(), a boundary-channel key, or one read from a snapshot.
  /// Does not advance next_seq_; after a restore, beginRestore() re-seeds
  /// the counter so later schedules continue the original numbering. Pop
  /// order is strictly (at, seq), so the order keys are armed in is
  /// irrelevant.
  template <typename F>
  EventId restoreSchedule(SimTime at, std::uint64_t seq, F&& cb) {
    const std::uint32_t slot = acquireSlot(std::forward<F>(cb));
    const HeapEntry entry{at, seq, slot};
    if (!wheel_.park(entry)) heapPush(entry);
    ++live_;
    return EventId{pack(slot, slots_[slot].generation)};
  }

  /// Reset the queue for a restore: drop every pending event (releasing
  /// captured resources — pool handles die into a still-alive pool) and
  /// re-seed the sequence counter so restored and post-restore events share
  /// one numbering with the snapshotted run. The wheel base catches up to
  /// the restored clock; the wheel itself needs no restoration (placement
  /// is a performance detail — ensureFront() proves pop order regardless).
  void beginRestore(SimTime now, std::uint64_t nextSeq) {
    clear();
    next_seq_ = nextSeq;
    wheel_.advanceBase(now.ns());
  }

  /// Entries currently tombstoned, in the heap or parked in wheel buckets
  /// (observability/tests).
  [[nodiscard]] std::size_t tombstoneCount() const { return tombstones_; }

  /// Entries currently parked in wheel buckets rather than the heap
  /// (observability/tests/benches).
  [[nodiscard]] std::size_t parkedCount() const { return wheel_.size(); }

 private:
  struct HeapEntry {
    SimTime at;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  struct Slot {
    Callback cb;
    std::uint32_t generation = 0;
    bool active = false;     ///< Owned by a heap entry (live or tombstoned).
    bool tombstone = false;  ///< Cancelled; reclaimed when it surfaces.
  };

  // EventId layout: (slot + 1) in the high 32 bits keeps value != 0.
  static constexpr std::uint64_t pack(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(slot) + 1) << 32 | gen;
  }
  static constexpr std::uint32_t unpackSlot(std::uint64_t v) {
    return static_cast<std::uint32_t>(v >> 32) - 1;
  }
  static constexpr std::uint32_t unpackGeneration(std::uint64_t v) {
    return static_cast<std::uint32_t>(v);
  }

  template <typename F>
  std::uint32_t acquireSlot(F&& cb) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.cb.assign(std::forward<F>(cb));
    s.active = true;
    s.tombstone = false;
    return slot;
  }

  void releaseSlot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.cb.reset();
    s.active = false;
    s.tombstone = false;
    ++s.generation;  // invalidate outstanding handles
    free_.push_back(slot);
  }

  void skipTombstones() {
    while (!heap_.empty() && slots_[heap_.front().slot].tombstone) {
      const std::uint32_t slot = heap_.front().slot;
      heapPopFront();
      releaseSlot(slot);
      --tombstones_;
    }
  }

  /// Cascade wheel buckets into the heap until the heap front is provably
  /// the global minimum: every parked entry's time is bounded below by its
  /// bucket's start, so once heap_min is *strictly* before the earliest
  /// bucket start no wheel entry can precede it. The comparison must be
  /// strict: on an exact tie (heap_min lands on a bucket-aligned time) the
  /// bucket may hold an earlier-scheduled entry at that same timestamp, and
  /// only cascading it into the heap lets the (time, seq) tie-break decide.
  /// Tombstones met during a cascade are reclaimed instead of heap-pushed.
  void ensureFront() {
    for (;;) {
      skipTombstones();
      if (wheel_.empty()) return;
      const std::int64_t heapMin =
          heap_.empty() ? SimTime::max().ns() : heap_.front().at.ns();
      if (heapMin < wheel_.horizonStartNs()) return;
      wheel_.cascadeEarliest([this](const HeapEntry& e) {
        if (slots_[e.slot].tombstone) {
          releaseSlot(e.slot);
          --tombstones_;
        } else {
          heapPush(e);
        }
      });
    }
  }

  /// Rebuild the heap — and purge the wheel buckets — without tombstoned
  /// entries, bounding dead-entry state for workloads that cancel most of
  /// what they schedule (dense periodic schedules torn down mid-run).
  void compact() {
    std::size_t kept = 0;
    for (const HeapEntry& e : heap_) {
      if (slots_[e.slot].tombstone) {
        releaseSlot(e.slot);
        --tombstones_;
      } else {
        heap_[kept++] = e;
      }
    }
    heap_.resize(kept);
    if (kept > 1) {
      for (std::size_t i = (kept - 2) / kArity + 1; i-- > 0;) siftDown(i, heap_[i]);
    }
    wheel_.removeIf(
        [this](const HeapEntry& e) { return slots_[e.slot].tombstone; },
        [this](const HeapEntry& e) {
          releaseSlot(e.slot);
          --tombstones_;
        });
  }

  // --- 4-ary min-heap over (at, seq); shallower than binary, and the four
  // children share a cache line's worth of 24-byte entries. ---
  static constexpr std::size_t kArity = 4;

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  // Sifts move a hole and place the element once instead of swapping
  // 24-byte entries at every level.
  void heapPush(HeapEntry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void heapPopFront() {
    const HeapEntry tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) siftDown(0, tail);
  }

  void siftDown(std::size_t i, HeapEntry e) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  std::vector<HeapEntry> heap_;
  TimingWheel<HeapEntry> wheel_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace scidmz::sim
