// Byte-bounded drop-tail FIFO — the egress queue model for every interface.
//
// Buffer sizing is the crux of the paper's Section 5: deep-buffered science
// switches absorb TCP bursts and fan-in; cheap LAN switches and firewall
// input stages with shallow buffers drop them.
//
// Storage is a detail::Ring of 8-byte PacketRef handles in 2 KiB blocks
// (256 handles each) taken as the queue grows and given back as it drains:
// no per-packet allocation, no packet copies on enqueue/dequeue, and an
// idle port holds at most one block.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "net/codec.hpp"
#include "net/packet_pool.hpp"
#include "sim/codec.hpp"
#include "sim/stats.hpp"
#include "sim/units.hpp"

namespace scidmz::net {

namespace detail {

/// FIFO ring: the egress queue's PacketRef handles and every DelayLine's
/// records. Elements live in fixed-size blocks of about 2 KiB: the ring
/// takes a block as it grows past its last one and gives the front block
/// back once it is consumed, keeping at most one spare so a queue that
/// hovers at a block boundary does not churn the allocator. Memory follows
/// the live element count, not the ring's all-time peak, and growth never
/// moves an element.
template <typename T>
class Ring {
 public:
  /// Elements per block: a power of two, so indexing is shifts and masks.
  static constexpr std::size_t kBlockElems =
      std::bit_floor(std::max<std::size_t>(16, 2048 / sizeof(T)));

  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    clear();
    deallocate(spare_);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Blocks allocated, in use or spare.
  [[nodiscard]] std::size_t blocksHeld() const { return blocks_ + (spare_ != nullptr ? 1 : 0); }

  void push(T value) {
    if (head_ + size_ == blocks_ * kBlockElems) addBlock();
    ::new (static_cast<void*>(&slot(size_))) T(std::move(value));
    ++size_;
  }

  /// The i-th element from the front. Precondition: i < size().
  [[nodiscard]] T& operator[](std::size_t i) { return slot(i); }

  /// Precondition: !empty().
  [[nodiscard]] const T& front() const { return slot(0); }
  [[nodiscard]] const T& back() const { return slot(size_ - 1); }

  /// Precondition: !empty().
  [[nodiscard]] T pop() {
    T& first = slot(0);
    T out = std::move(first);
    first.~T();
    // Retire the front block once it is consumed or the ring is empty, so
    // an idle ring holds one spare block at most.
    --size_;
    if (++head_ == kBlockElems || size_ == 0) {
      giveBack(map_[first_]);
      first_ = (first_ + 1) & (map_.size() - 1);
      --blocks_;
      head_ = 0;
    }
    return out;
  }

  /// Exchange contents (and spare blocks) with `other`; moves no element.
  void swap(Ring& other) noexcept {
    map_.swap(other.map_);
    std::swap(first_, other.first_);
    std::swap(blocks_, other.blocks_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
    std::swap(spare_, other.spare_);
  }

  /// Drop every element (restore resets contents before re-filling from the
  /// snapshot; packet handles release into the live pool).
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) slot(i).~T();
    for (std::size_t b = 0; b < blocks_; ++b) giveBack(map_[(first_ + b) & (map_.size() - 1)]);
    first_ = 0;
    blocks_ = 0;
    head_ = 0;
    size_ = 0;
  }

 private:
  [[nodiscard]] T& slot(std::size_t i) const {
    const std::size_t k = head_ + i;
    return map_[(first_ + k / kBlockElems) & (map_.size() - 1)][k % kBlockElems];
  }

  void addBlock() {
    if (blocks_ == map_.size()) {
      // The block map is itself a power-of-two ring of pointers; only the
      // pointers move when it doubles.
      std::vector<T*> next(map_.empty() ? 4 : map_.size() * 2);
      for (std::size_t b = 0; b < blocks_; ++b) next[b] = map_[(first_ + b) & (map_.size() - 1)];
      map_ = std::move(next);
      first_ = 0;
    }
    T* block = spare_ != nullptr ? std::exchange(spare_, nullptr)
                                 : static_cast<T*>(::operator new(kBlockElems * sizeof(T)));
    map_[(first_ + blocks_) & (map_.size() - 1)] = block;
    ++blocks_;
  }

  void giveBack(T* block) {
    if (spare_ == nullptr) {
      spare_ = block;
    } else {
      deallocate(block);
    }
  }

  static void deallocate(T* block) {
    if (block != nullptr) ::operator delete(block, kBlockElems * sizeof(T));
  }

  std::vector<T*> map_;      ///< block pointers, circular
  std::size_t first_ = 0;    ///< map index of the front block
  std::size_t blocks_ = 0;   ///< blocks in use
  std::size_t head_ = 0;     ///< front element's index in the front block
  std::size_t size_ = 0;
  T* spare_ = nullptr;       ///< at most one drained block kept for reuse
};

}  // namespace detail

struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;
  sim::DataSize bytesEnqueued = sim::DataSize::zero();
  sim::DataSize bytesDropped = sim::DataSize::zero();
  sim::DataSize peakDepth = sim::DataSize::zero();
  sim::TimeWeightedMean depthOverTime;

  [[nodiscard]] double dropFraction() const {
    const auto offered = enqueued + dropped;
    return offered == 0 ? 0.0 : static_cast<double>(dropped) / static_cast<double>(offered);
  }

  void serialize(sim::Codec& c) {
    c.vu64(enqueued);
    c.vu64(dropped);
    sim::codecSize(c, bytesEnqueued);
    sim::codecSize(c, bytesDropped);
    sim::codecSize(c, peakDepth);
    depthOverTime.serialize(c);
  }
};

class DropTailQueue {
 public:
  explicit DropTailQueue(sim::DataSize capacityBytes) : capacity_(capacityBytes) {}

  /// Attempt to enqueue; returns false (and counts a drop) when the packet
  /// would push the queue past its byte capacity. Either way the handle is
  /// consumed — a rejected packet's slot recycles when the ref dies here.
  bool tryEnqueue(sim::SimTime now, PacketRef packet) {
    const auto size = packet->wireSize();
    if (depth_ + size > capacity_) {
      ++stats_.dropped;
      stats_.bytesDropped += size;
      return false;
    }
    depth_ += size;
    ++stats_.enqueued;
    stats_.bytesEnqueued += size;
    if (depth_ > stats_.peakDepth) stats_.peakDepth = depth_;
    stats_.depthOverTime.update(now, static_cast<double>(depth_.byteCount()));
    ring_.push(std::move(packet));
    return true;
  }

  /// Pop the head packet; returns an empty (falsy) ref when idle.
  [[nodiscard]] PacketRef dequeue(sim::SimTime now) {
    if (ring_.empty()) return PacketRef{};
    PacketRef p = ring_.pop();
    // The next head is read one serialization later; start its packet's
    // cache line on its way now.
    if (!ring_.empty()) __builtin_prefetch(ring_.front().get());
    depth_ -= p->wireSize();
    stats_.depthOverTime.update(now, static_cast<double>(depth_.byteCount()));
    return p;
  }

  [[nodiscard]] bool empty() const { return ring_.empty(); }
  [[nodiscard]] std::size_t packetCount() const { return ring_.size(); }
  [[nodiscard]] sim::DataSize depth() const { return depth_; }

  /// Effective capacity, never below the current depth: shrinking a backlogged
  /// queue used to leave `depth() > capacity()` visible to observers (a >100%
  /// utilisation, nonsensical). Admission still tests against the *requested*
  /// capacity, so the reported value converges to it as the backlog drains.
  [[nodiscard]] sim::DataSize capacity() const {
    return capacity_ < depth_ ? depth_ : capacity_;
  }

  /// Resize the buffer at runtime (the Colorado defect clamps buffers live).
  /// The requested size takes effect immediately for admission — a shrink
  /// below the current depth drops every new arrival until the queue drains
  /// below it, exactly the store-and-forward collapse the defect model needs —
  /// but capacity() clamps to depth() so the invariant `depth <= capacity`
  /// holds for every observer.
  void setCapacity(sim::DataSize capacity) { capacity_ = capacity; }

  [[nodiscard]] const QueueStats& stats() const { return stats_; }

  /// Snapshot/restore: capacity, stats, and the queued packets themselves
  /// (head-first, so a restored queue drains in the original order). On
  /// restore the ring is cleared first — restoring twice into the same
  /// queue is deterministic — and packets are re-acquired from `pool`; a
  /// count the blob cannot hold is refused before any is.
  void serialize(sim::Codec& c, PacketPool& pool) {
    sim::codecSize(c, capacity_);
    stats_.serialize(c);
    if (c.writing()) {
      std::uint64_t n = ring_.size();
      c.count(n, kMinPacketBits);
      for (std::size_t i = 0; i < ring_.size(); ++i) codecPacket(c, *ring_[i]);
    } else {
      ring_.clear();
      depth_ = sim::DataSize::zero();
      std::uint64_t n = 0;
      c.count(n, kMinPacketBits);
      for (std::uint64_t i = 0; i < n && c.ok(); ++i) {
        Packet p;
        codecPacket(c, p);
        depth_ += p.wireSize();
        ring_.push(pool.acquire(std::move(p)));
      }
    }
  }

 private:
  sim::DataSize capacity_;
  sim::DataSize depth_ = sim::DataSize::zero();
  detail::Ring<PacketRef> ring_;
  QueueStats stats_;
};

}  // namespace scidmz::net
