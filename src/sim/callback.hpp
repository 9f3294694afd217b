// Small-buffer-optimized move-only callable for the event hot path.
//
// std::function heap-allocates any capture larger than its tiny internal
// buffer, which on the scheduler hot path means one malloc/free per event.
// SmallCallback sizes its inline buffer for the common captures (a `this`
// pointer plus a few scalars or references) so the schedule path never
// touches the allocator.
// Oversized or throwing-move callables fall back to the heap with identical
// semantics.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace scidmz::sim {

/// Move-only type-erased `void()` callable with `InlineBytes` of inline
/// storage. Callables that fit, are suitably aligned, and are nothrow move
/// constructible live inline; everything else is heap-backed.
template <std::size_t InlineBytes>
class SmallCallback {
  static_assert(InlineBytes >= sizeof(void*), "buffer must hold the heap fallback pointer");

 public:
  SmallCallback() noexcept = default;

  // Implicit by intent, mirroring std::function at call sites.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallCallback> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  /// Replace the held callable, constructing the new one in place — the
  /// schedule hot path uses this to build the closure directly in its slot
  /// (no intermediate SmallCallback, no relocation).
  template <typename F,
            typename = std::enable_if_t<std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void assign(F&& f) {
    reset();
    if constexpr (std::is_same_v<std::decay_t<F>, SmallCallback>) {
      moveFrom(f);
    } else {
      construct(std::forward<F>(f));
    }
  }

  SmallCallback(SmallCallback&& other) noexcept { moveFrom(other); }
  SmallCallback& operator=(SmallCallback&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }
  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;
  ~SmallCallback() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroy the wrapped callable (releases captured resources eagerly).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Whether the callable lives in the inline buffer (benchmark/test hook).
  [[nodiscard]] bool isInline() const noexcept { return ops_ != nullptr && ops_->isInline; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*relocate)(void* from, void* to) noexcept;  ///< Move-construct `to`, destroy `from`.
    void (*destroy)(void* storage) noexcept;
    bool isInline;
  };

  template <typename Fn>
  static Fn* inlinePtr(void* storage) noexcept {
    return std::launder(reinterpret_cast<Fn*>(storage));
  }
  template <typename Fn>
  static Fn* heapPtr(void* storage) noexcept {
    return static_cast<Fn*>(*reinterpret_cast<void**>(storage));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* s) { (*inlinePtr<Fn>(s))(); },
      [](void* from, void* to) noexcept {
        ::new (to) Fn(std::move(*inlinePtr<Fn>(from)));
        inlinePtr<Fn>(from)->~Fn();
      },
      [](void* s) noexcept { inlinePtr<Fn>(s)->~Fn(); },
      true,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* s) { (*heapPtr<Fn>(s))(); },
      [](void* from, void* to) noexcept { *reinterpret_cast<void**>(to) = *reinterpret_cast<void**>(from); },
      [](void* s) noexcept { delete heapPtr<Fn>(s); },
      false,
  };

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= InlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      *reinterpret_cast<void**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &kHeapOps<Fn>;
    }
  }

  void moveFrom(SmallCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[InlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace scidmz::sim
