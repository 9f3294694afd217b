// Shared per-scenario services handed to every component by reference.
// Holding them in one struct keeps constructors short and makes it obvious
// that a scenario is a unit of determinism: one Simulator, one master Rng,
// one Telemetry hub, one packet pool, one Arena.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet_pool.hpp"
#include "sim/arena.hpp"
#include "sim/codec.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace scidmz::net {

namespace detail {
/// One id per extension type, assigned on first use, process-wide — so
/// every Context indexes its extension table identically. fetch_add keeps
/// first-use races between sweep threads safe.
inline std::atomic<std::size_t> next_extension_id{0};
template <typename T>
std::size_t extensionId() {
  static const std::size_t id = next_extension_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}
}  // namespace detail

class Context {
 public:
  Context(sim::Simulator& simulator, sim::Rng& rng)
      : sim_(simulator), rng_(rng), telemetry_(simulator, arena_) {}

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// The Simulator outlives the Context in every harness (declared first,
  /// destroyed last), and pending event callbacks may own handles into this
  /// Context's pool or arena. Destroy them now, while both are still alive.
  ~Context() { sim_.clearPendingEvents(); }

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  /// Scenario-local instrumentation; disabled (near-zero cost) unless the
  /// scenario calls telemetry().enable() or SCIDMZ_TELEMETRY is set.
  [[nodiscard]] telemetry::Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] const telemetry::Telemetry& telemetry() const { return telemetry_; }
  /// The scenario's packet pool: every in-flight packet lives in one of its
  /// slots and travels as a PacketRef handle (see net/packet_pool.hpp).
  [[nodiscard]] PacketPool& pool() { return pool_; }
  [[nodiscard]] const PacketPool& pool() const { return pool_; }
  /// The scenario's object arena: connections, flow state and telemetry
  /// series allocate here instead of the global heap (see sim/arena.hpp).
  /// Declared first in the member list, so it outlives every other member
  /// and every ArenaPtr issued to scenario components.
  [[nodiscard]] sim::Arena& arena() { return arena_; }
  [[nodiscard]] const sim::Arena& arena() const { return arena_; }

  /// Per-Context singleton of an arbitrary default-constructible type,
  /// created on first use and destroyed with the Context. This is how
  /// higher layers attach per-scenario state (telemetry::Tracer,
  /// tcp::FluidEngine) without net:: depending on them: the Context stores
  /// them type-erased, keyed by a process-wide type id.
  template <typename T>
  [[nodiscard]] T& extension() {
    const std::size_t id = detail::extensionId<T>();
    if (id >= extensions_.size()) extensions_.resize(id + 1);
    Extension& slot = extensions_[id];
    if (!slot.ptr) {
      slot.ptr = new T();
      slot.destroy = [](void* p) { delete static_cast<T*>(p); };
    }
    return *static_cast<T*>(slot.ptr);
  }

  /// Forwarding-plane throughput counter: bumped once per successful
  /// `Device::forward` hop. Sweep cells report it into BENCH_sim.json as
  /// packets/sec, the datapath counterpart to events/sec.
  void countForwarded() { ++packets_forwarded_; }
  [[nodiscard]] std::uint64_t packetsForwarded() const { return packets_forwarded_; }

  [[nodiscard]] sim::SimTime now() const { return sim_.now(); }
  [[nodiscard]] std::uint64_t nextPacketId() { return ++packet_id_; }
  /// Scenario-local measurement-stream ids (OWAMP etc.). Keeping the counter
  /// here — never in function-local statics — is what lets sweep cells run
  /// in parallel without races or cross-cell id drift.
  [[nodiscard]] std::uint32_t nextStreamId() { return ++stream_id_; }

  // --- Snapshot/restore seam -----------------------------------------------

  /// Plain-counter state (packet ids, stream ids, forwarded count). The id
  /// counters feed packet identity in traces, so they must continue the
  /// snapshotted numbering exactly.
  void serialize(sim::Codec& c) {
    c.vu64(packet_id_);
    c.vu64(packets_forwarded_);
    c.vu32(stream_id_);
  }

 private:
  struct Extension {
    void* ptr = nullptr;
    void (*destroy)(void*) = nullptr;

    Extension() = default;
    Extension(Extension&& other) noexcept : ptr(other.ptr), destroy(other.destroy) {
      other.ptr = nullptr;
      other.destroy = nullptr;
    }
    Extension& operator=(Extension&& other) noexcept {
      if (this != &other) {
        reset();
        ptr = other.ptr;
        destroy = other.destroy;
        other.ptr = nullptr;
        other.destroy = nullptr;
      }
      return *this;
    }
    Extension(const Extension&) = delete;
    Extension& operator=(const Extension&) = delete;
    ~Extension() { reset(); }
    void reset() {
      if (ptr != nullptr) destroy(ptr);
      ptr = nullptr;
      destroy = nullptr;
    }
  };

  sim::Arena arena_;  // first: outlives everything that allocates from it
  sim::Simulator& sim_;
  sim::Rng& rng_;
  telemetry::Telemetry telemetry_;
  PacketPool pool_;
  std::vector<Extension> extensions_;
  std::uint64_t packet_id_ = 0;
  std::uint64_t packets_forwarded_ = 0;
  std::uint32_t stream_id_ = 0;
};

}  // namespace scidmz::net
