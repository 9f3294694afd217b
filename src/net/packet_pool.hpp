// Slab-allocated packet pool and the move-only handle that carries a packet
// through the data path.
//
// The originating host moves a packet into a pool slot once, and an 8-byte
// `PacketRef` — the slot's address and nothing else — moves (never copies)
// through `Interface::send`, the `DropTailQueue` ring, every `DelayLine`
// (link propagation, serialization, firewall engines, switch pipeline),
// `Device::forward` and the TCP/RoCE demux. When the last handle dies the
// slot returns to the pool's free list and is recycled — steady-state
// forwarding performs no allocation at all.
//
// Layout: a slab is 32 KiB aligned to 32 KiB. Its first 64 bytes hold the
// owning pool's address; the rest is kSlabPackets slots of at most 112
// bytes (a `Packet`). A handle finds its pool by masking its slot address
// down to the slab, so it need not carry the pool. A pool's first region
// is one slab, so a pool that holds a few packets costs one small
// allocation to set up; later slabs are carved in order from 1 MiB
// regions. (One aligned allocation per slab leaves an alignment gap beside
// each, which the allocator fills with other small objects: measured, that
// cost more resident memory than the packets saved.) A free slot holds the
// next free slot's address, so the free list costs nothing beside the
// slots and releasing never allocates.
//
// Ownership rules (see DESIGN.md §6, "packet lifecycle"):
//  * exactly one live PacketRef owns a slot; moving the ref transfers
//    ownership, destroying it recycles the slot;
//  * borrowers (taps, ACLs, loss models, telemetry's FlightRecorder, the
//    PacketSink demux) receive `const Packet&` / `Packet&` and must not
//    retain the pointer past the call;
//  * a dropped packet is simply a ref that goes out of scope — drop paths
//    need no explicit free.
//
// The pool is per-`net::Context`, so parallel sweep cells never share slabs
// and recycling order is deterministic for a given scenario + seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "net/packet.hpp"

namespace scidmz::net {

class PacketPool;

/// Move-only owning handle to a pool-resident packet. Empty handles are
/// valid (falsy) and are what `DropTailQueue::dequeue` returns when idle.
class PacketRef {
 public:
  PacketRef() = default;
  PacketRef(PacketRef&& other) noexcept : p_(std::exchange(other.p_, nullptr)) {}
  PacketRef& operator=(PacketRef&& other) noexcept {
    if (this != &other) {
      release();
      p_ = std::exchange(other.p_, nullptr);
    }
    return *this;
  }
  PacketRef(const PacketRef&) = delete;
  PacketRef& operator=(const PacketRef&) = delete;
  ~PacketRef() { release(); }

  [[nodiscard]] Packet& operator*() const { return *p_; }
  [[nodiscard]] Packet* operator->() const { return p_; }
  [[nodiscard]] Packet* get() const { return p_; }
  [[nodiscard]] explicit operator bool() const { return p_ != nullptr; }

  /// Return the slot to the pool now (drop paths usually just let the
  /// handle go out of scope instead).
  void reset() { release(); }

 private:
  friend class PacketPool;
  explicit PacketRef(Packet* p) : p_(p) {}
  inline void release() noexcept;

  Packet* p_ = nullptr;
};

/// Free-list-recycled slab allocator for packets. Slabs are never returned
/// to the OS during a scenario: the pool's high-water mark is the peak
/// number of in-flight packets.
class PacketPool {
 public:
  static constexpr std::size_t kSlabBytes = std::size_t{32} << 10;
  static constexpr std::size_t kRegionBytes = std::size_t{1} << 20;
  static constexpr std::size_t kHeaderBytes = 64;
  static constexpr std::size_t kSlabPackets = (kSlabBytes - kHeaderBytes) / sizeof(Packet);

  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool() {
    while (regions_ != nullptr) {
      Slab* next = regions_->nextRegion;
      ::operator delete(regions_, regions_->regionBytes, std::align_val_t{kSlabBytes});
      regions_ = next;
    }
  }

  /// Acquire a fresh (default-initialized) packet slot.
  [[nodiscard]] PacketRef acquire() { return PacketRef{::new (takeSlot()) Packet{}}; }

  /// Move an already-built packet value into a slot — the one copy a
  /// packet pays, at its origination point.
  [[nodiscard]] PacketRef acquire(Packet&& packet) {
    return PacketRef{::new (takeSlot()) Packet{std::move(packet)}};
  }

  /// Handles currently alive.
  [[nodiscard]] std::size_t liveCount() const { return live_; }
  /// Peak simultaneous live handles over the pool's lifetime.
  [[nodiscard]] std::size_t highWater() const { return high_water_; }
  /// Slots ever allocated (slabs * slab size).
  [[nodiscard]] std::size_t slotCount() const { return slab_count_ * kSlabPackets; }

 private:
  friend class PacketRef;
  /// A slot on the free list.
  struct FreeSlot {
    FreeSlot* next;
  };
  struct Slab {
    PacketPool* pool;
    // In a region's first slab: the previous region and this one's size.
    Slab* nextRegion;
    std::size_t regionBytes;
  };
  static_assert(std::is_trivially_destructible_v<Packet>, "a released slot is reused as is");
  static_assert(sizeof(Slab) <= kHeaderBytes && alignof(Packet) <= kHeaderBytes);
  static_assert(kHeaderBytes + kSlabPackets * sizeof(Packet) <= kSlabBytes);
  static_assert(kRegionBytes % kSlabBytes == 0);

  /// The pool that owns `p`: the header of the aligned slab holding it.
  static PacketPool& owner(Packet* p) {
    const auto slab = reinterpret_cast<std::uintptr_t>(p) & ~(std::uintptr_t{kSlabBytes} - 1);
    return *reinterpret_cast<Slab*>(slab)->pool;
  }

  void* takeSlot() {
    if (free_ == nullptr) addSlab();
    FreeSlot* slot = free_;
    free_ = slot->next;
    if (++live_ > high_water_) high_water_ = live_;
    return slot;
  }

  void releaseSlot(Packet* p) noexcept {
    free_ = ::new (static_cast<void*>(p)) FreeSlot{free_};
    --live_;
  }

  void addSlab() {
    if (carve_ == carve_end_) {
      const std::size_t bytes = regions_ == nullptr ? kSlabBytes : kRegionBytes;
      carve_ = static_cast<std::byte*>(::operator new(bytes, std::align_val_t{kSlabBytes}));
      carve_end_ = carve_ + bytes;
      regions_ = ::new (carve_) Slab{this, regions_, bytes};
    } else {
      ::new (carve_) Slab{this, nullptr, 0};
    }
    std::byte* raw = carve_;
    carve_ += kSlabBytes;
    ++slab_count_;
    // LIFO free list threaded from the slab's first slot, so the earliest
    // slots recycle first — recycling order is an implementation detail,
    // but keeping it stable keeps heap layouts (and so perf) reproducible
    // run to run.
    std::byte* slots = raw + kHeaderBytes;
    for (std::size_t i = kSlabPackets; i > 0; --i) {
      free_ = ::new (slots + (i - 1) * sizeof(Packet)) FreeSlot{free_};
    }
  }

  Slab* regions_ = nullptr;     ///< newest region first
  std::byte* carve_ = nullptr;  ///< next slab of the newest region
  std::byte* carve_end_ = nullptr;
  FreeSlot* free_ = nullptr;
  std::size_t slab_count_ = 0;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
};

static_assert(sizeof(PacketRef) == 8, "a packet handle is one pointer");

inline void PacketRef::release() noexcept {
  if (p_ != nullptr) {
    PacketPool::owner(p_).releaseSlot(p_);
    p_ = nullptr;
  }
}

/// Pool-backed factory helpers: build the packet directly in its slot, no
/// intermediate value.
[[nodiscard]] inline PacketRef makeTcpPacket(PacketPool& pool, FlowKey flow,
                                             const TcpHeader& header, sim::DataSize payload) {
  PacketRef p = pool.acquire();
  p->flow = flow;
  p->body = header;
  p->payload = payload;
  return p;
}

[[nodiscard]] inline PacketRef makeProbePacket(PacketPool& pool, FlowKey flow,
                                               const ProbeHeader& header, sim::DataSize payload) {
  PacketRef p = pool.acquire();
  p->flow = flow;
  p->body = header;
  p->payload = payload;
  return p;
}

[[nodiscard]] inline PacketRef makeRocePacket(PacketPool& pool, FlowKey flow,
                                              const RoceHeader& header, sim::DataSize payload) {
  PacketRef p = pool.acquire();
  p->flow = flow;
  p->body = header;
  p->payload = payload;
  return p;
}

}  // namespace scidmz::net
