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
// interface tx, firewall engines, switch pipelines) owns one re-keyable
// Timer instead of scheduling closures: each item reserves its key
// (reserveSeq()) and the line arms its timer at its earliest item's key
// (arm()). Armed timers sit in a second 4-ary heap of {at, seq, Timer*}
// beside the closure heap and the wheel; the queue serves whichever front
// is earlier in the same (at, seq) order, so a timer fires exactly where a
// closure under its key would have. Each timer knows its heap position, so
// an overtaking push re-keys it in place and disarm() removes it from the
// middle. Timers never park in the wheel.
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

/// A re-keyable timer: at most one armed (time, sequence) key, fired by a
/// plain function on its owner. Owned by its owner (a net::DelayLine), which
/// must not move it while armed and must disarm it before dying.
struct Timer {
  static constexpr std::uint32_t kUnarmed = ~std::uint32_t{0};
  void* owner = nullptr;
  void (*fire)(void* owner) = nullptr;
  const char* source = nullptr;  ///< profiler layer name; a string literal
  std::uint32_t pos = kUnarmed;  ///< index in the timer heap, set by the queue
  [[nodiscard]] bool armed() const { return pos != kUnarmed; }
};

/// Time-ordered event queue.
class EventQueue {
 public:
  /// Sized so the common closures — a `this` (or a few references) plus a
  /// handful of scalars — stay inline. The data path schedules no closures
  /// (its delay lines arm Timers), and no callback captures a Packet by
  /// value, so slots are 64 bytes rather than the 192 a by-value Packet
  /// needed.
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

  /// Arm `timer` under (at, seq) — a key from reserveSeq(), a boundary
  /// channel's, or a snapshot's — or, if it is already armed, re-key it in
  /// place. Pop order is (at, seq) across timers and closures alike.
  void arm(Timer& timer, SimTime at, std::uint64_t seq) {
    const TimerEntry e{at, seq, &timer};
    if (!timer.armed()) {
      timers_.push_back(e);
      siftUp(timers_, timers_.size() - 1, e);
    } else if (before(e, timers_[timer.pos])) {
      siftUp(timers_, timer.pos, e);
    } else {
      siftDown(timers_, timer.pos, e);
    }
  }

  /// Take `timer` out of the queue; a no-op when it is not armed.
  void disarm(Timer& timer) {
    if (!timer.armed()) return;
    const std::size_t i = timer.pos;
    timer.pos = Timer::kUnarmed;
    const TimerEntry tail = timers_.back();
    timers_.pop_back();
    if (i == timers_.size()) return;
    if (i > 0 && before(tail, timers_[(i - 1) / kArity])) {
      siftUp(timers_, i, tail);
    } else {
      siftDown(timers_, i, tail);
    }
  }

  /// Live closures plus armed timers.
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t size() const { return live_ + timers_.size(); }

  /// Time of the next live event; SimTime::max() when empty.
  [[nodiscard]] SimTime nextTime() {
    ensureFront();
    const SimTime closure = heap_.empty() ? SimTime::max() : heap_.front().at;
    return timers_.empty() || closure < timers_.front().at ? closure : timers_.front().at;
  }

  /// If the next event is an armed timer, pop it: the timer is disarmed and
  /// returned, `at` is set to its due time, and the caller fires it. Returns
  /// nullptr when the next event is a closure (take it with pop()).
  /// Precondition: !empty().
  Timer* popTimer(SimTime& at) {
    ensureFront();
    if (timers_.empty()) return nullptr;
    const TimerEntry top = timers_.front();
    if (!heap_.empty() && before(heap_.front(), top)) return nullptr;
    at = top.at;
    wheel_.advanceBase(at.ns());
    disarm(*top.timer);
    return top.timer;
  }

  /// Pop the next live closure event. Precondition: !empty() and the next
  /// event is not a timer (popTimer() returned nullptr).
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
  /// released, not destroyed, so handles issued before clear() stay stale;
  /// every armed timer is disarmed.
  void clear() {
    for (const TimerEntry& e : timers_) e.timer->pos = Timer::kUnarmed;
    timers_.clear();
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
  /// captured resources — pool handles die into a still-alive pool, and
  /// every timer is disarmed) and
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
  struct TimerEntry {
    SimTime at;
    std::uint64_t seq = 0;
    Timer* timer = nullptr;
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
  /// The timer heap's front bounds the search too: a wheel entry can only
  /// precede a timer due before every bucket start by cascading, so none
  /// needs to.
  void ensureFront() {
    for (;;) {
      skipTombstones();
      if (wheel_.empty()) return;
      std::int64_t frontMin = heap_.empty() ? SimTime::max().ns() : heap_.front().at.ns();
      if (!timers_.empty() && timers_.front().at.ns() < frontMin) {
        frontMin = timers_.front().at.ns();
      }
      if (frontMin < wheel_.horizonStartNs()) return;
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
      for (std::size_t i = (kept - 2) / kArity + 1; i-- > 0;) siftDown(heap_, i, heap_[i]);
    }
    wheel_.removeIf(
        [this](const HeapEntry& e) { return slots_[e.slot].tombstone; },
        [this](const HeapEntry& e) {
          releaseSlot(e.slot);
          --tombstones_;
        });
  }

  // --- 4-ary min-heaps over (at, seq), one template for both: shallower
  // than binary, and the four children share a cache line's worth of
  // 24-byte entries. A timer heap's entry records its new position in its
  // timer wherever it lands. ---
  static constexpr std::size_t kArity = 4;

  template <typename A, typename B>
  static bool before(const A& a, const B& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  static void place(std::vector<HeapEntry>& h, std::size_t i, const HeapEntry& e) { h[i] = e; }
  static void place(std::vector<TimerEntry>& h, std::size_t i, const TimerEntry& e) {
    h[i] = e;
    e.timer->pos = static_cast<std::uint32_t>(i);
  }

  void heapPush(const HeapEntry& e) {
    heap_.push_back(e);
    siftUp(heap_, heap_.size() - 1, e);
  }

  void heapPopFront() {
    const HeapEntry tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) siftDown(heap_, 0, tail);
  }

  // Sifts move a hole and place the element once instead of swapping
  // entries at every level.
  template <typename Entry>
  static void siftUp(std::vector<Entry>& h, std::size_t i, Entry e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, h[parent])) break;
      place(h, i, h[parent]);
      i = parent;
    }
    place(h, i, e);
  }

  template <typename Entry>
  static void siftDown(std::vector<Entry>& h, std::size_t i, Entry e) {
    const std::size_t n = h.size();
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(h[c], h[best])) best = c;
      }
      if (!before(h[best], e)) break;
      place(h, i, h[best]);
      i = best;
    }
    place(h, i, e);
  }

  std::vector<HeapEntry> heap_;
  std::vector<TimerEntry> timers_;
  TimingWheel<HeapEntry> wheel_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace scidmz::sim
