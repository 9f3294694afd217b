// Byte-bounded drop-tail FIFO — the egress queue model for every interface.
//
// Buffer sizing is the crux of the paper's Section 5: deep-buffered science
// switches absorb TCP bursts and fan-in; cheap LAN switches and firewall
// input stages with shallow buffers drop them.
//
// Storage is a power-of-two ring of 16-byte PacketRef handles (grown
// geometrically, never shrunk), replacing the former std::deque<Packet>:
// no per-node allocation, no ~150-byte packet copies on enqueue/dequeue,
// and the whole queue state of a typical port fits in one cache line's
// worth of handles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/codec.hpp"
#include "net/packet_pool.hpp"
#include "sim/codec.hpp"
#include "sim/stats.hpp"
#include "sim/units.hpp"

namespace scidmz::net {

namespace detail {

/// Minimal FIFO ring: the egress queue's PacketRef handles and every
/// DelayLine's records. Capacity is a power of two and doubles when full;
/// slots are reused in place, so steady-state traffic touches the
/// allocator only while the ring is still warming up.
template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// The i-th element from the front. Precondition: i < size().
  [[nodiscard]] T& operator[](std::size_t i) { return slots_[(head_ + i) & (slots_.size() - 1)]; }

  /// Precondition: !empty().
  [[nodiscard]] const T& front() const { return slots_[head_]; }
  [[nodiscard]] const T& back() const { return slots_[(head_ + size_ - 1) & (slots_.size() - 1)]; }

  /// Precondition: !empty().
  [[nodiscard]] T pop() {
    T out = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return out;
  }

  /// Drop every element (restore resets contents before re-filling from the
  /// snapshot; packet handles release into the live pool).
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) (*this)[i] = T{};
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    const std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
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
  /// queue is deterministic — and packets are re-acquired from `pool`.
  void serialize(sim::Codec& c, PacketPool& pool) {
    sim::codecSize(c, capacity_);
    stats_.serialize(c);
    if (c.writing()) {
      std::uint64_t n = ring_.size();
      c.vu64(n);
      for (std::size_t i = 0; i < ring_.size(); ++i) codecPacket(c, *ring_[i]);
    } else {
      ring_.clear();
      depth_ = sim::DataSize::zero();
      std::uint64_t n = 0;
      c.vu64(n);
      for (std::uint64_t i = 0; i < n; ++i) {
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
