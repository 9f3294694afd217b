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
//
// Sharded runs: a packet crossing a cut shard channel keeps its slot in the
// sending domain's pool, so its last handle may die on another domain's
// thread. A pool whose domain sends over a cut is marked shared
// (shareAcrossDomains); a release on any thread but the one running the
// pool's domain pushes the slot onto the pool's remote-release stack (one
// lock-free CAS) instead of the free list. The owner takes the whole stack
// back when its free list runs dry, before carving a new slab. A pool that
// is never shared pays one predictable branch per release for this.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "net/packet.hpp"
#include "sim/domain.hpp"

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
  /// Every handle into the pool must be gone first. In a sharded run that
  /// includes handles in other domains' lines and queues, so a scenario
  /// destroys every domain's topology before any domain's pool.
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

  /// Sharded runs: this pool's slots may be released on other domains'
  /// threads from now on. `home` is the pool's domain, as
  /// sim::ShardedSimulator::runningDomain() names it on the thread that
  /// owns the pool. Call before the run, with no worker running.
  void shareAcrossDomains(const sim::Simulator& home) { home_ = &home; }

  /// Handles currently alive (exact whenever no release is in progress).
  [[nodiscard]] std::size_t liveCount() const {
    return live_ - remote_pending_.load(std::memory_order_relaxed);
  }
  /// Peak simultaneous slots off the free list over the pool's lifetime:
  /// live handles, plus (in a shared pool) slots released on another
  /// domain's thread and not yet taken back.
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
    if (free_ == nullptr) refill();
    FreeSlot* slot = free_;
    free_ = slot->next;
    if (++live_ > high_water_) high_water_ = live_;
    return slot;
  }

  void releaseSlot(Packet* p) noexcept {
    if (home_ != nullptr && home_ != sim::ShardedSimulator::runningDomain()) [[unlikely]] {
      releaseRemote(p);
      return;
    }
    free_ = ::new (static_cast<void*>(p)) FreeSlot{free_};
    --live_;
  }

  /// Another domain's thread (or no domain's) lets go of one of our slots.
  /// The count goes up before the slot is pushed, so the owner never takes
  /// back more slots than it has counted.
  void releaseRemote(Packet* p) noexcept {
    remote_pending_.fetch_add(1, std::memory_order_relaxed);
    auto* slot = ::new (static_cast<void*>(p)) FreeSlot{remote_.load(std::memory_order_relaxed)};
    while (!remote_.compare_exchange_weak(slot->next, slot, std::memory_order_release,
                                          std::memory_order_relaxed)) {
    }
  }

  /// The free list ran dry: take back every slot other domains released,
  /// else carve a new slab.
  void refill() {
    if (home_ != nullptr) {
      free_ = remote_.exchange(nullptr, std::memory_order_acquire);
      if (free_ != nullptr) {
        live_ -= remote_pending_.exchange(0, std::memory_order_relaxed);
        return;
      }
    }
    addSlab();
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
  std::size_t live_ = 0;  ///< slots off the free list, remote releases included
  std::size_t high_water_ = 0;
  const sim::Simulator* home_ = nullptr;  ///< set once the pool is shared
  // Written by other domains' threads: a cache line of their own.
  alignas(64) std::atomic<FreeSlot*> remote_{nullptr};
  std::atomic<std::size_t> remote_pending_{0};  ///< released remotely, not yet taken back
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
