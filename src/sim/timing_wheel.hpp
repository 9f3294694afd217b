// Hierarchical timing wheel: O(1) parking for the dominant periodic and
// far-future timers (perfSONAR probe cadences, TCP pacing ticks and RTOs,
// telemetry sampling), in front of the event queue's 4-ary heap.
//
// The wheel is a *staging* structure, not a priority queue: entries are
// appended to power-of-two-granularity buckets in O(1) at schedule time and
// only meet the comparison-based heap when their bucket comes due. A bucket
// cascade either drains into the heap (level 0) or redistributes one level
// down (level L's bucket width equals level L-1's full span), so each entry
// is touched at most kLevels times between park and pop. Exactness is
// preserved because the heap — not the wheel — always serves the next
// event: the queue cascades buckets until the heap front is provably the
// global minimum (heap_min strictly < start of every non-empty bucket; an
// exact tie cascades, since the tied bucket may hold an earlier-scheduled
// entry at that same bucket-aligned timestamp), and bucket entries keep
// their original (time, sequence) keys, so pop order is byte-identical to
// a heap-only queue.
//
// Geometry: kLevels levels of 256 buckets. Level 0 buckets are 2^10 ns
// (~1 us) wide covering ~262 us; each level up is 256x coarser, so the
// wheel spans ~2^42 ns (~73 min) of simulated time ahead of its base.
// Anything beyond that — and anything within a few level-0 buckets of the
// base (kMinParkAheadNs), i.e. the sub-microsecond packet events — bypasses
// the wheel and uses the heap directly, which keeps the datapath fast path
// unchanged.
//
// Invariant: every non-empty bucket starts at or after base_. The base
// advances only by cascading the globally earliest bucket (coarsest level
// first on ties, so a parent bucket redistributes before a child at the
// same start is drained), which is what makes bucket start times
// unambiguous under the modulo-256 indexing.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace scidmz::sim {

/// `Entry` must expose `.at` (a SimTime) and be cheap to copy; the event
/// queue parks its 24-byte HeapEntry (time, sequence, slot) unchanged.
template <typename Entry>
class TimingWheel {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kBucketBits = 8;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  /// Level-0 bucket width is 2^kShift0 ns; each level is 256x coarser.
  static constexpr int kShift0 = 10;
  /// Entries closer than this to the base stay in the heap. Sub-bucket
  /// deltas *must* (the current bucket can't hold future entries); a few
  /// buckets of slack keeps dense near-now schedules — the sub-microsecond
  /// datapath events — off the park/cascade round trip entirely, since
  /// they'd cascade within a handful of pops anyway.
  static constexpr std::int64_t kMinParkAheadNs = std::int64_t{4} << kShift0;

  /// Try to park `e`. Returns false when the entry is due now, too close to
  /// the base (kMinParkAheadNs), or beyond the wheel's span — the caller
  /// keeps such entries in the heap.
  bool park(const Entry& e) {
    const std::int64_t at = e.at.ns();
    if (at - base_ < kMinParkAheadNs) return false;  // due or near-now: heap
    for (int level = 0; level < kLevels; ++level) {
      if (at - base_ >= spanFor(level)) continue;
      const int shift = shiftFor(level);
      const std::size_t idx = static_cast<std::size_t>(at >> shift) & (kBuckets - 1);
      // When base_ is unaligned to this level's bucket width, a delta just
      // under the span can land exactly one revolution ahead — in the bucket
      // congruent with the base's own index, whose start would then resolve
      // *behind* base_ and regress it on cascade. Promote such entries a
      // level (or, at the top level, to the heap) instead.
      if (idx == (static_cast<std::size_t>(base_ >> shift) & (kBuckets - 1))) continue;
      bucketAt(level, idx).push_back(e);
      markOccupied(level, idx);
      ++count_;
      const std::int64_t start = (at >> shift) << shift;
      if (start < earliest_.start ||
          (start == earliest_.start && level > earliest_.level)) {
        earliest_ = {start, level, idx};
      }
      return true;
    }
    return false;  // beyond the horizon: heap overflow
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::int64_t baseNs() const { return base_; }

  /// Start time (ns) of the earliest non-empty bucket — a lower bound on
  /// every parked entry's time. INT64_MAX when the wheel is empty. O(1):
  /// the cursor is maintained on park and recomputed after each cascade.
  [[nodiscard]] std::int64_t horizonStartNs() const { return earliest_.start; }

  /// Advance the base when the wheel is empty — a free no-cascade catch-up
  /// the event queue applies at every pop. Without it, a long stretch of
  /// heap-only traffic leaves the base far behind simulated time and the
  /// next near-now schedule would park in a spuriously coarse bucket.
  void advanceBase(std::int64_t t) {
    if (count_ == 0 && t > base_) base_ = t;
  }

  /// Cascade the globally earliest bucket: level-0 entries are handed to
  /// `due` (the caller heap-pushes or reclaims them); higher-level buckets
  /// redistribute one level down. Advances the base. Precondition: !empty().
  template <typename Sink>
  void cascadeEarliest(Sink&& due) {
    if (earliest_.level < 0) return;
    const int bestLevel = earliest_.level;
    const std::size_t bestIdx = earliest_.idx;
    const std::int64_t bestStart = earliest_.start;
    std::vector<Entry>& bucket = bucketAt(bestLevel, bestIdx);
    scratch_.swap(bucket);
    clearOccupied(bestLevel, bestIdx);
    count_ -= scratch_.size();
    // Base first (re-parked children land relative to it), then rescan so
    // park()'s incremental cursor updates start from the surviving buckets.
    // The base never moves backwards: park() keeps every bucket start at or
    // after base_, and the clamp makes that monotonicity unconditional.
    const std::int64_t newBase =
        bestLevel == 0 ? bestStart + spanFor(0) / static_cast<std::int64_t>(kBuckets)
                       : bestStart;
    if (newBase > base_) base_ = newBase;
    rescanEarliest();
    if (bestLevel == 0) {
      for (Entry& e : scratch_) due(e);
    } else {
      for (Entry& e : scratch_) {
        if (!park(e)) due(e);
      }
    }
    scratch_.clear();
  }

  /// Hand every parked entry to `fn` and empty the wheel (teardown path).
  template <typename Fn>
  void drain(Fn&& fn) {
    for (int level = 0; level < kLevels; ++level) {
      for (std::size_t idx = 0; idx < kBuckets; ++idx) {
        for (Entry& e : bucketAt(level, idx)) fn(e);
        bucketAt(level, idx).clear();
      }
    }
    occupied_.fill(0);
    count_ = 0;
    earliest_ = Cursor{};
  }

  /// Visit every parked entry (bucket order, not time order) — snapshot
  /// key lookup and diagnostics; never on the hot path.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (const auto& bucket : buckets_) {
      for (const Entry& e : bucket) fn(e);
    }
  }

  /// Remove every parked entry matching `pred`, invoking `reclaim` on each —
  /// the event queue's compact() uses this so tombstones parked in wheel
  /// buckets are reclaimed with the same trigger as heap tombstones. Visits
  /// only the buckets the occupancy bitmap marks, in bucket order.
  template <typename Pred, typename Reclaim>
  void removeIf(Pred&& pred, Reclaim&& reclaim) {
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      const int level = static_cast<int>(w / kWordsPerLevel);
      for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t idx =
            (w % kWordsPerLevel) * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        std::vector<Entry>& bucket = bucketAt(level, idx);
        std::size_t kept = 0;
        for (Entry& e : bucket) {
          if (pred(e)) {
            reclaim(e);
            --count_;
          } else {
            bucket[kept++] = e;
          }
        }
        bucket.resize(kept);
        if (bucket.empty()) clearOccupied(level, idx);
      }
    }
    rescanEarliest();
  }

 private:
  static constexpr int shiftFor(int level) { return kShift0 + level * kBucketBits; }
  static constexpr std::int64_t spanFor(int level) {
    return std::int64_t{1} << (shiftFor(level) + kBucketBits);
  }

  [[nodiscard]] std::vector<Entry>& bucketAt(int level, std::size_t idx) {
    return buckets_[static_cast<std::size_t>(level) * kBuckets + idx];
  }
  [[nodiscard]] const std::vector<Entry>& bucketAt(int level, std::size_t idx) const {
    return buckets_[static_cast<std::size_t>(level) * kBuckets + idx];
  }

  /// Absolute start time of bucket `idx` at `level`, resolved against the
  /// base (every non-empty bucket is within one revolution ahead of it).
  [[nodiscard]] std::int64_t bucketStartNs(int level, std::size_t idx) const {
    const int shift = shiftFor(level);
    const std::int64_t cur = base_ >> shift;
    const std::int64_t dist =
        static_cast<std::int64_t>((idx - static_cast<std::size_t>(cur)) & (kBuckets - 1));
    return (cur + dist) << shift;
  }

  // --- occupancy bitmap: 4 words of 64 bits per level ---------------------
  static constexpr std::size_t kWordsPerLevel = kBuckets / 64;

  void markOccupied(int level, std::size_t idx) {
    occupied_[static_cast<std::size_t>(level) * kWordsPerLevel + idx / 64] |=
        std::uint64_t{1} << (idx % 64);
  }
  void clearOccupied(int level, std::size_t idx) {
    occupied_[static_cast<std::size_t>(level) * kWordsPerLevel + idx / 64] &=
        ~(std::uint64_t{1} << (idx % 64));
  }

  /// Cursor to the globally earliest non-empty bucket; sentinel (INT64_MAX,
  /// -1) when the wheel is empty. Keeping it current makes horizonStartNs()
  /// — checked on every pop — one load instead of a 4-level bitmap scan,
  /// and hands cascadeEarliest() its target for free.
  struct Cursor {
    std::int64_t start = std::numeric_limits<std::int64_t>::max();
    int level = -1;
    std::size_t idx = 0;
  };

  /// Recompute the cursor from the occupancy bitmaps. Coarsest level first,
  /// strict '<' to update: on equal starts the parent bucket must
  /// redistribute before a child at the same start is drained.
  void rescanEarliest() {
    earliest_ = Cursor{};
    for (int level = kLevels - 1; level >= 0; --level) {
      const std::size_t idx = earliestBucket(level);
      if (idx == kBuckets) continue;
      const std::int64_t start = bucketStartNs(level, idx);
      if (start < earliest_.start) earliest_ = {start, level, idx};
    }
  }

  /// Earliest non-empty bucket at `level`, scanning circularly from the
  /// base's current bucket. Returns kBuckets when the level is empty.
  [[nodiscard]] std::size_t earliestBucket(int level) const {
    const std::size_t cur =
        static_cast<std::size_t>(base_ >> shiftFor(level)) & (kBuckets - 1);
    const std::uint64_t* words = &occupied_[static_cast<std::size_t>(level) * kWordsPerLevel];
    for (std::size_t step = 0; step < kWordsPerLevel + 1; ++step) {
      const std::size_t word = (cur / 64 + step) % kWordsPerLevel;
      std::uint64_t bits = words[word];
      if (step == 0) bits &= ~std::uint64_t{0} << (cur % 64);  // bits >= cur only
      if (step == kWordsPerLevel) bits = words[word] & ((std::uint64_t{1} << (cur % 64)) - 1);
      if (bits != 0) {
        return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      }
    }
    return kBuckets;
  }

  std::vector<std::vector<Entry>> buckets_{std::size_t{kLevels} * kBuckets};
  std::array<std::uint64_t, std::size_t{kLevels} * kWordsPerLevel> occupied_{};
  std::vector<Entry> scratch_;  ///< reused cascade buffer, no per-cascade alloc
  std::int64_t base_ = 0;
  std::size_t count_ = 0;
  Cursor earliest_;
};

}  // namespace scidmz::sim
