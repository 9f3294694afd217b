// Size-class slab arena for per-scenario object allocation.
//
// Extends the PacketPool idiom (net/packet_pool.hpp) from one fixed type to
// any object a scenario churns through: TCP connections, flow state,
// telemetry series nodes. Allocations are rounded up to a power-of-two size
// class (64 B .. 4 KiB) and served from a per-class LIFO freelist carved out
// of 64 KiB slabs; frees push the block back onto its class's freelist, so
// steady-state connection setup/teardown performs no heap traffic at all.
// Oversized or over-aligned requests fall through to operator new — the
// arena never rejects a request, it only declines to pool it.
//
// Slabs are never returned to the OS during a scenario (same policy as the
// packet pool): the arena's footprint is the peak working set, reclaimed
// wholesale when the owning net::Context dies. Freelists are LIFO and slabs
// are carved front-to-back, so recycling order — and therefore heap layout
// and perf — is reproducible run to run.
//
// Ownership: ArenaPtr<T> is a unique_ptr whose deleter destroys the object
// and returns its block to the arena, so arena-backed members drop into
// existing std::unique_ptr-shaped code unchanged. The arena must outlive
// every ArenaPtr it issued; net::Context declares its arena first so it is
// destroyed last. The deleter is typed: construct ArenaPtr<T> only for the
// exact allocated type (no base-class erasure), or the returned block would
// be filed under the wrong size class.
//
// Not thread-safe, by design: one arena per Context, one Context per sweep
// cell, parallelism only across cells.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace scidmz::sim {

class Arena;

/// Deleter for arena-backed objects: destroy in place, return the block.
template <typename T>
struct ArenaDeleter {
  Arena* arena = nullptr;
  inline void operator()(T* p) const noexcept;
};

/// unique_ptr over an arena block. Default-constructed (empty) ArenaPtrs
/// carry no arena and are safe to destroy.
template <typename T>
using ArenaPtr = std::unique_ptr<T, ArenaDeleter<T>>;

class Arena {
 public:
  static constexpr std::size_t kMinClassBytes = 64;
  static constexpr std::size_t kMaxClassBytes = 4096;
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Construct a T in an arena block. The arena must outlive the result.
  template <typename T, typename... Args>
  [[nodiscard]] ArenaPtr<T> make(Args&&... args) {
    void* mem = allocate(sizeof(T), alignof(T));
    try {
      return ArenaPtr<T>(::new (mem) T(std::forward<Args>(args)...), ArenaDeleter<T>{this});
    } catch (...) {
      deallocate(mem, sizeof(T), alignof(T));
      throw;
    }
  }

  /// Raw block interface, for containers that manage construction
  /// themselves. Pooled when `bytes` fits a size class and `align` is no
  /// stricter than the slab carving guarantees; plain new/delete otherwise.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align) {
    if (bytes > kMaxClassBytes || align > alignof(std::max_align_t)) {
      ++unpooled_live_;
      return ::operator new(bytes, std::align_val_t{align});
    }
    const std::size_t cls = classFor(bytes);
    std::vector<void*>& freelist = free_[cls];
    void* block;
    if (!freelist.empty()) {
      block = freelist.back();
      freelist.pop_back();
    } else {
      block = carve(classBytes(cls));
      // Grow the freelist's capacity here, on the throwing-allowed path: a
      // class's freelist can never hold more blocks than were carved for it,
      // so reserving for the carved count keeps deallocate()'s push_back
      // allocation-free and genuinely noexcept. Geometric growth bounds the
      // reserve cost to amortized O(1) per carve.
      ++carved_[cls];
      if (freelist.capacity() < carved_[cls]) {
        const std::size_t doubled = freelist.capacity() * 2;
        freelist.reserve(doubled > carved_[cls] ? doubled : carved_[cls]);
      }
    }
    ++live_;
    if (live_ > high_water_) high_water_ = live_;
    return block;
  }

  void deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
    if (p == nullptr) return;
    if (bytes > kMaxClassBytes || align > alignof(std::max_align_t)) {
      --unpooled_live_;
      ::operator delete(p, std::align_val_t{align});
      return;
    }
    // Cannot allocate (and thus cannot throw): allocate() reserved capacity
    // for every block ever carved in this class, and the freelist never
    // holds more than that.
    free_[classFor(bytes)].push_back(p);
    --live_;
  }

  /// Pooled blocks currently handed out.
  [[nodiscard]] std::size_t liveCount() const { return live_; }
  /// Peak simultaneous pooled blocks.
  [[nodiscard]] std::size_t highWater() const { return high_water_; }
  /// Oversized/over-aligned allocations currently live (operator-new path).
  [[nodiscard]] std::size_t unpooledLive() const { return unpooled_live_; }
  /// 64 KiB slabs retained by the arena.
  [[nodiscard]] std::size_t slabCount() const { return slabs_.size(); }

 private:
  // Size classes: 64, 128, 256, 512, 1024, 2048, 4096 bytes.
  static constexpr std::size_t kClasses = 7;

  /// The smallest class whose blocks hold `bytes`: log2 of the size rounded
  /// up to a power of two, less log2(kMinClassBytes).
  static constexpr std::size_t classFor(std::size_t bytes) {
    if (bytes <= kMinClassBytes) return 0;
    return static_cast<std::size_t>(std::bit_width(bytes - 1) - std::bit_width(kMinClassBytes - 1));
  }
  static constexpr std::size_t classBytes(std::size_t cls) { return kMinClassBytes << cls; }

  /// Carve one block of `bytes` (a power of two >= 64) from the current
  /// slab, starting a new slab when the remainder is too small. Slab bases
  /// are max_align-aligned and offsets are multiples of 64, so every pooled
  /// block satisfies any fundamental alignment (stricter requests take the
  /// operator-new path above).
  void* carve(std::size_t bytes) {
    if (slab_used_ + bytes > kSlabBytes || slabs_.empty()) {
      slabs_.push_back(std::make_unique<std::byte[]>(kSlabBytes));
      slab_used_ = 0;
    }
    void* block = slabs_.back().get() + slab_used_;
    slab_used_ += bytes;
    return block;
  }

  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::size_t slab_used_ = 0;
  std::vector<void*> free_[kClasses];
  std::size_t carved_[kClasses] = {};  ///< blocks ever carved, per class
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
  std::size_t unpooled_live_ = 0;
};

template <typename T>
inline void ArenaDeleter<T>::operator()(T* p) const noexcept {
  if (p == nullptr) return;
  p->~T();
  arena->deallocate(p, sizeof(T), alignof(T));
}

}  // namespace scidmz::sim
