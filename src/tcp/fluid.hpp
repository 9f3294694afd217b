// Fluid (analytic) TCP flow engine.
//
// The paper's Figure 1 argument is that steady-state TCP throughput is a
// *function* — the Mathis / TFRC response function of MSS, RTT and loss —
// not something that has to be rediscovered packet by packet. This engine
// exploits that: a fluid flow carries no packets at all. Its rate is
// computed analytically from its path (traced once at creation through the
// same FIBs packets use) and advanced on a coarse periodic tick, so one
// flow costs O(path length) arithmetic per tick instead of thousands of
// events per second. That is what makes 100k+ concurrent background flows
// affordable (see bench/micro_fluid.cpp).
//
// Coupling to the packet world runs both ways, through the links:
//   - each tick the engine publishes every traversed link direction's
//     aggregate fluid demand (Link::setFluidDemand); packet serialization
//     then runs at Link::effectiveRate — the residual capacity — so packet
//     flows feel fluid load;
//   - the engine measures each link direction's delivered packet bytes per
//     tick, and fluid flows get the larger of the measured leftover and a
//     flow-count-proportional entitlement of the capacity. The entitlement
//     floor (rather than leftover alone) keeps the split from locking in:
//     leftover-only allocation makes *any* division a fixed point.
//
// Rates are recomputed in flow-id order — never by iterating a hash map —
// so floating-point accumulation order, and therefore every table derived
// from fluid flows, is byte-identical run to run and at any
// SCIDMZ_SWEEP_THREADS. Recomputation only happens when something that
// feeds the rates changed (flow set, queued data, establishment,
// completion, packet-flow registration, or the measured per-link packet
// load); between changes a tick is a single pass over the compact hot
// arrays (rate/carry/target/delivered), which is what keeps 100k-flow
// crowds at a few hundred megabytes of memory traffic per simulated
// second instead of tens of gigabytes. A recompute visits only the flows
// in flight at the previous one plus the flows woken since (established,
// or given more data), so it costs O(in-flight + newly woken flows), not
// O(flows ever created): the rest of a crowd is idle, and idle flows hold
// a zero rate.
//
// A flow keeps only what is its own: a cold record of <= 96 B, a route id
// into a table holding each distinct traced path once (packet flows
// register through it too), and one pointer to the owning FluidFlowHandle,
// which the engine calls directly, in place of three std::functions.
//
// One engine per net::Context, reached via ctx.extension<FluidEngine>()
// (default-constructed; the first addFlow binds it to the Context).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/flow.hpp"
#include "sim/codec.hpp"
#include "sim/event_queue.hpp"
#include "sim/units.hpp"
#include "tcp/congestion.hpp"
#include "telemetry/span.hpp"

namespace scidmz::net {
class Host;
}

namespace scidmz::tcp {

struct TcpConfig;

/// The packet engine's measured Reno goodput over the lossy half of the
/// Figure 1 grid runs ~17% above the deterministic-sawtooth Mathis bound:
/// geometric (random) loss spacing beats the worst-case once-per-cycle
/// assumption, and NewReno keeps the pipe partially filled through fast
/// recovery. The fluid model stands in for the packet engine, not for the
/// textbook bound, so the response function carries this factor
/// (tests/scenario/fluid_agreement_test.cpp holds the two engines to a 10%
/// mean relative error).
inline constexpr double kRenoCalibration = 1.17;

/// Steady-state goodput (bits/s) of one congestion-control algorithm at the
/// given loss rate — the per-CC generalization of Equation 1, calibrated to
/// the packet engine (kRenoCalibration). Returns a huge sentinel (never a
/// binding constraint) when p <= 0.
[[nodiscard]] double ccResponseBps(CcAlgorithm algorithm, double mssBits, double rttSeconds,
                                   double lossRate);

class FluidFlowHandle;

class FluidEngine {
 public:
  /// 0 is never a valid id.
  using FlowId = std::uint32_t;

  FluidEngine() = default;
  FluidEngine(const FluidEngine&) = delete;
  FluidEngine& operator=(const FluidEngine&) = delete;

  /// Create a fluid flow; the path is traced through the FIBs now, so
  /// routes must be installed. `streams` parallel streams aggregate into
  /// one flow with an N-fold response function and window (the paper's
  /// parallel-stream loss resilience). `owner` (null for none) is told of
  /// establishment, delivery and completion.
  FlowId addFlow(net::Host& src, net::Host& dst, const TcpConfig& config, int streams,
                 FluidFlowHandle* owner = nullptr);
  /// Tear a flow down (abort or handle destruction): demand is withdrawn
  /// at the next tick, the slot recycles.
  void removeFlow(FlowId id);

  /// Per-tick delivery notification to the owner (off by default: it costs
  /// one call per flow per tick).
  void notifyDeliveries(FlowId id) { if (Flow* f = flowFor(id)) f->notify = true; }
  [[nodiscard]] bool notifiesDeliveries(FlowId id) const {
    return flowFor(id) != nullptr && flowFor(id)->notify;
  }

  /// Begin the "handshake": the flow establishes one path-RTT from now
  /// (never, if the path was unroutable — the analog of a black-holed SYN).
  void startFlow(FlowId id);
  /// Queue bulk bytes (callable repeatedly, like TcpConnection::sendData).
  void queueData(FlowId id, sim::DataSize bytes);

  [[nodiscard]] bool established(FlowId id) const;
  [[nodiscard]] bool sendComplete(FlowId id) const;
  [[nodiscard]] sim::DataSize deliveredBytes(FlowId id) const;
  [[nodiscard]] sim::DataRate goodput(FlowId id) const;
  [[nodiscard]] sim::DataRate currentRate(FlowId id) const;
  /// Model-implied retransmit count: delivered segments x p / (1 - p).
  [[nodiscard]] std::uint64_t retransmitEstimate(FlowId id) const;

  /// Trace the routed path src -> dst through the FIBs now and return its
  /// id in the route table, shared with every earlier trace of the same
  /// path (same hops, delay, bottleneck and loss).
  [[nodiscard]] std::uint32_t routeTo(net::Host& src, net::Host& dst);
  /// False when the trace dead-ended or looped.
  [[nodiscard]] bool routable(std::uint32_t route) const { return !routes_[route].hops.empty(); }
  [[nodiscard]] std::size_t routeCount() const { return routes_.size(); }

  /// Packet flows sharing links register their routes so the entitlement
  /// split (fluid vs packet capacity share) can count them per link
  /// direction. Called by the packet FlowHandle on start / completion.
  void registerPacketRoute(std::uint32_t route);
  void deregisterPacketRoute(std::uint32_t route);

  /// Flows currently established and draining queued data.
  [[nodiscard]] std::size_t activeFlowCount() const;
  [[nodiscard]] std::uint64_t flowsCompleted() const { return flows_completed_; }

  /// Snapshot/restore overlay (see DESIGN.md "State & serialization").
  /// The rebuild re-created the same flows in the same order, so routes,
  /// response functions, and slot layout are re-derived; this carries only
  /// the dynamic state (delivery progress, measured link loads, pending
  /// establishment events, the ticker). Link-direction aggregates are
  /// matched by endpoint-name key, not position: the rebuild's first-touch
  /// order may interleave packet-path registrations differently. Returns
  /// the number of pending events claimed.
  std::uint64_t serialize(sim::Codec& c);

 private:
  /// Per (link, direction) aggregate state. Stored in a vector in
  /// first-touch order (deterministic — flows are created in program
  /// order); the hash map is only a lookup index, never iterated for
  /// arithmetic.
  struct LinkDir {
    net::Link* link = nullptr;
    int end = 0;
    int packetFlows = 0;      ///< registered packet flows traversing this dir
    std::uint64_t baselineBytes = 0;  ///< bytesDelivered at last tick
    double measuredWireBps = 0.0;     ///< packet traffic observed last tick
    double fluidWeight = 0.0;         ///< sum of active fluid stream counts
    double availWireBps = 0.0;        ///< capacity available to fluid flows
    double wireDemandBps = 0.0;       ///< unconstrained fluid demand
    double publishBps = 0.0;          ///< post-scaling demand to publish
  };

  /// One distinct traced path. Interned by content, not by endpoints, so a
  /// flow created after a route change gets the new path while earlier
  /// flows keep theirs.
  struct Route {
    std::vector<std::uint32_t> hops;  ///< link_dirs_ indices, src -> dst
    sim::Duration oneWayDelay;
    sim::DataRate bottleneck;
    double lossRate = 0.0;  ///< combined hop drop probability
  };

  /// Cold per-flow state: touched at creation, rate recomputation, and
  /// completion — never in the per-tick integration loop. The hot state
  /// (rate/carry/target/delivered) lives in the parallel hot_* arrays so a
  /// steady-state tick streams ~40 bytes per flow, not this struct.
  struct Flow {  // eight-byte members first, for size
    FluidFlowHandle* owner = nullptr;
    double mssBytes = 1460.0;
    double wireFactor = 1.0;            ///< (mss + headers) / mss
    double responseBps = 0.0;           ///< loss-bound goodput (all streams)
    double windowBps = 0.0;             ///< buffer-limited goodput
    double bottleneckGoodputBps = 0.0;  ///< path capacity as goodput
    /// Pending establishment event (armed between startFlow and +RTT) and
    /// the epoch its closure captured — snapshots re-arm with the same
    /// staleness check.
    sim::EventId establishEvent{};
    sim::SimTime establishedAt;
    /// Completion stamp, back-dated to the analytic finish instant within
    /// the tick. Only valid once the flow has drained; goodput() uses the
    /// current sim time for in-flight flows.
    sim::SimTime lastDeliveryAt;
    std::uint32_t route = 0;  ///< index into routes_
    /// Bumped on removal so pending establishment events for a recycled
    /// slot can recognize they are stale.
    std::uint32_t epoch = 0;
    std::uint32_t establishEpoch = 0;
    int weight = 1;  ///< parallel streams
    bool inUse = false;
    bool started = false;
    bool established = false;
    bool completeNotified = false;
    bool notify = false;  ///< the owner listens to per-tick deliveries
  };
  // libstdc++'s deque packs 512 / sizeof(Flow) records per node.
  static_assert(sizeof(Flow) <= 96, "cold flow records must fit five per deque node");

  /// One entry per flow that had data in flight at the last rate
  /// recomputation, in flow-id order. `notify` copies the flow's bit so the
  /// no-listener hot path never touches the cold struct.
  struct ActiveEntry {
    std::uint32_t idx;  ///< flows_ / hot_* index (id - 1)
    bool notify;
  };

  [[nodiscard]] const Flow* flowFor(FlowId id) const;
  [[nodiscard]] Flow* flowFor(FlowId id);
  [[nodiscard]] std::uint32_t linkDirIndex(net::Link* link, int end);
  [[nodiscard]] bool activeSendingAt(std::size_t idx) const {
    return flows_[idx].established && hot_target_[idx] > hot_delivered_[idx];
  }

  /// Put a flow that may have started sending on the wake list and make
  /// sure the ticker runs; a no-op unless it is established with data left.
  void wake(std::uint32_t idx);
  void ensureTicker();
  void onTick();
  /// Body of the deferred-establishment event (shared by startFlow and the
  /// snapshot re-arm path so both fire identically).
  void establishmentFire(FlowId id, std::uint32_t epoch);
  /// Advance delivered bytes by the previous tick's rates over `dtSeconds`.
  void integrate(double dtSeconds);
  /// Measure per-link packet traffic over the elapsed interval; returns
  /// whether any direction's load changed (rates must be recomputed).
  bool measureLinks(double dtSeconds);
  /// Recompute the rate of every flow in the previous active list or the
  /// wake list, rebuild the active list from those still sending, and
  /// publish per-link demand.
  void recomputeRates();
  void withdrawDemand();
  void initTelemetry();

  /// Rate-integration cadence.
  static constexpr sim::Duration kTick = sim::Duration::milliseconds(10);

  net::Context* ctx_ = nullptr;
  std::vector<Route> routes_;
  /// Route content (hop indices, delay, bottleneck, loss as raw bytes) ->
  /// routes_ index. Lookup only; never iterated.
  std::unordered_map<std::string, std::uint32_t> route_ids_;
  std::string route_key_;  ///< routeTo's key buffer, reused: a hit allocates nothing
  std::deque<Flow> flows_;
  // Hot per-flow state, parallel to flows_ (index = id - 1).
  std::vector<double> hot_rate_;       ///< current goodput rate (bits/s)
  std::vector<double> hot_carry_;      ///< sub-byte accumulation between ticks
  std::vector<std::uint64_t> hot_target_;
  std::vector<std::uint64_t> hot_delivered_;
  /// Invariant: a non-zero hot_rate_ implies the flow is in active_.
  std::vector<ActiveEntry> active_;
  std::vector<ActiveEntry> prev_active_;  ///< recompute scratch, reused
  /// Flows that may have started sending since the last recompute
  /// (unsorted, may repeat): the only flows outside active_ a recompute
  /// visits. Rebuilt by one scan of the flows on snapshot restore.
  std::vector<std::uint32_t> wake_;
  std::size_t active_left_ = 0;  ///< active_.size() at the last recompute
  bool rates_dirty_ = false;     ///< a rate input changed since last recompute
  std::vector<FlowId> free_ids_;
  std::vector<LinkDir> link_dirs_;
  std::unordered_map<std::uint64_t, std::uint32_t> link_dir_index_;
  bool ticker_armed_ = false;
  sim::EventId ticker_event_{};
  sim::SimTime last_tick_;
  std::uint64_t flows_completed_ = 0;

  // Telemetry (armed lazily, only when the hub is enabled).
  bool tel_init_ = false;
  double total_rate_bps_ = 0.0;
  std::uint64_t* tel_bytes_ = nullptr;
  std::uint64_t* tel_completed_ = nullptr;
};

/// The fluid-fidelity net::FlowHandle: owns one engine flow, which calls it
/// back directly. Built by net::FlowFactory (constructor in flow_factory.cpp).
class FluidFlowHandle final : public net::FlowHandle {
 public:
  FluidFlowHandle(net::Context& ctx, net::Host& src, net::Host& dst, const TcpConfig& config,
                  const net::FlowFactory::Options& options);

  ~FluidFlowHandle() override {
    engine_.removeFlow(id_);
    endSpans();
  }

  /// The engine flow this handle owns; 0 after abort().
  [[nodiscard]] FluidEngine::FlowId id() const { return id_; }

  void start() override {
    if (tracer_ != nullptr && root_.valid() && !handshake_.valid()) {
      handshake_ = tracer_->begin(ctx_.now(), "handshake", "tcp.phase", root_);
    }
    syncDeliveryCallback();
    engine_.startFlow(id_);
  }
  void sendData(sim::DataSize bytes) override { engine_.queueData(id_, bytes); }
  void sendOnStream(int, sim::DataSize bytes) override { engine_.queueData(id_, bytes); }
  void abort() override {
    engine_.removeFlow(id_);
    id_ = 0;
    endSpans();
  }

  [[nodiscard]] net::FlowFidelity fidelity() const override { return net::FlowFidelity::kFluid; }
  [[nodiscard]] int streamCount() const override { return streams_; }
  [[nodiscard]] bool established() const override { return engine_.established(id_); }
  [[nodiscard]] bool sendComplete() const override { return engine_.sendComplete(id_); }
  [[nodiscard]] sim::DataSize deliveredBytes() const override {
    return engine_.deliveredBytes(id_);
  }
  /// Fluid flows have no retransmission queue: delivered == acked.
  [[nodiscard]] sim::DataSize ackedBytes() const override { return engine_.deliveredBytes(id_); }
  [[nodiscard]] sim::DataRate goodput() const override { return engine_.goodput(id_); }
  [[nodiscard]] std::uint64_t retransmits() const override {
    return engine_.retransmitEstimate(id_);
  }
  [[nodiscard]] sim::DataRate currentRate() const override { return engine_.currentRate(id_); }

  [[nodiscard]] TcpConnection* clientConnection(int) override { return nullptr; }
  [[nodiscard]] TcpConnection* serverConnection(int) override { return nullptr; }

  std::uint64_t serializeState(sim::Codec& c) override {
    // The engine-side flow record is carried wholesale by the FLU section;
    // the handle only overlays its id (0 after an abort) and whether it
    // asked for delivery notifications.
    std::uint32_t id = id_;
    c.vu32(id);
    if (!c.writing()) {
      if (id == 0 && id_ != 0) {
        engine_.removeFlow(id_);  // aborted before the snapshot (FLU re-overlays)
        id_ = 0;
      } else if (id != id_) {
        c.reader().markFailed();
        return 0;
      }
    }
    bool notify = id_ != 0 && engine_.notifiesDeliveries(id_);
    c.b(notify);
    if (!c.writing() && notify) syncDeliveryCallback();
    return 0;
  }

 protected:
  void destroySelf() noexcept override {
    sim::Arena& arena = ctx_.arena();
    this->~FluidFlowHandle();
    arena.deallocate(this, sizeof(FluidFlowHandle), alignof(FluidFlowHandle));
  }

 private:
  friend class FluidEngine;  // calls the two engine* members
  void engineEstablished() {
    if (tracer_ != nullptr && !phase_.valid()) {
      if (handshake_.valid()) tracer_->end(handshake_, ctx_.now());
      // The analytic model has no per-ACK window dynamics: its whole
      // established lifetime reads as one cwnd-limited phase.
      phase_ = tracer_->begin(ctx_.now(), "cwnd_limited", "tcp.phase", root_);
      tracer_->annotate(phase_, "model", "fluid");
    }
    for (int i = 0; i < streams_; ++i) {
      if (onAccepted) onAccepted(i);
      if (onStreamEstablished) onStreamEstablished(i);
    }
    if (onEstablished) onEstablished();
    // The user callback above was the last natural point to assign
    // onDelivered; re-sync so the engine knows whether to notify.
    syncDeliveryCallback();
  }
  void engineSendComplete() {
    if (onStreamSendComplete) {
      for (int i = 0; i < streams_; ++i) onStreamSendComplete(i);
    }
    if (onSendComplete) onSendComplete();
  }

  /// Per-delivery notification costs one call per flow per engine tick, so
  /// it is only asked for when someone actually listens. Checked at start()
  /// and again after onEstablished; assigning onDelivered later than that
  /// is not supported at fluid fidelity (see net::FlowHandle).
  void syncDeliveryCallback() {
    if (onDelivered && id_ != 0) engine_.notifyDeliveries(id_);
  }

  void endSpans() {
    if (tracer_ == nullptr) return;
    const auto now = ctx_.now();
    if (handshake_.valid() && tracer_->isOpen(handshake_)) tracer_->end(handshake_, now);
    if (phase_.valid()) tracer_->end(phase_, now);
    if (root_.valid()) tracer_->end(root_, now);
    root_ = phase_ = handshake_ = telemetry::SpanId{};
  }

  // Ordered for size: id_ packs into FlowHandle's tail padding, and the
  // 4-byte members follow the pointers.
  FluidEngine::FlowId id_ = 0;
  net::Context& ctx_;
  FluidEngine& engine_;
  telemetry::Tracer* tracer_ = nullptr;
  int streams_ = 1;
  telemetry::SpanId root_{};
  telemetry::SpanId handshake_{};
  telemetry::SpanId phase_{};
};

// Fluid crowds hold tens of thousands of handles; one byte past the arena's
// 256-byte size class would double their footprint.
static_assert(sizeof(FluidFlowHandle) <= 256, "fluid handles must stay in a 256-byte block");

}  // namespace scidmz::tcp
