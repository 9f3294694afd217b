// Conservative parallel DES: N Simulators stitched by timestamped channels.
//
// A ShardedSimulator drives one Simulator per *domain* (a partition of the
// topology cut only at links whose propagation delay is at least the
// lookahead floor). Execution proceeds in barrier epochs:
//
//   1. At the barrier, the orchestrating thread publishes every cut
//      channel: what its sender staged last epoch becomes the destination's
//      to drain. This is O(1) per channel; no message is touched.
//   2. tmin = min over domains of the next pending event time and over cut
//      channels of the earliest published message.
//   3. Horizon H = min(tmin + lookahead, deadline + 1ns); when every queue
//      and channel is idle the horizon jumps straight past the deadline
//      (the null-message-style advance — an idle channel never blocks
//      progress).
//   4. Every domain, on its own thread and in parallel, drains its inbound
//      cut channels under their explicit (time, sequence) keys, then runs
//      its events with time strictly < H.
//
// The orchestrating thread does no per-message work between epochs.
//
// Safety argument: a cross-domain message sent at time t >= tmin arrives at
// t + delay >= tmin + lookahead = H, so it can never land inside a window
// another domain already executed. Liveness: the domain holding tmin always
// executes at least the event at tmin (H > tmin), so every epoch makes
// progress.
//
// Determinism / partition invariance: boundary deliveries carry reserved
// sequence keys above 2^63 — (channel id, per-channel FIFO counter) — so
// they sort after same-time local events and in a channel-id order that is
// a property of the topology, not of the partition. A channel has exactly
// one sending domain (one link direction), so its FIFO order is the
// sender's deterministic execution order. Provided *every* cut-eligible
// link routes through a channel at every domain count (including 1), event
// interleaving is byte-identical at 1, 2, and 8 domains. A channel whose
// ends share a domain has no Inbox: its sender arms each message itself,
// under the same key, the moment it sends.
//
// Channels are typed by their owner (a link direction stages
// {at, seq, PacketRef} records whose handles still point into the sending
// domain's pool); see Inbox.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace scidmz::sim {

/// Drives N per-domain Simulators (non-owning) in conservative barrier
/// epochs. Construction spawns one worker thread per extra domain; domain 0
/// runs on the calling thread. All public methods but runningDomain() must
/// be called from the orchestrating thread between runs. While an epoch
/// executes, each domain thread touches only its own domain, the cut
/// channels it sends on, the inbound cut channels it drains, and (through
/// a lock-free stack) the pools of packets that crossed into it.
class ShardedSimulator {
 public:
  /// The staging of one directed cut channel (its ends in two domains),
  /// implemented by the component that owns the channel's payload type
  /// (net::Link, one per cut link direction). It holds two batches: the
  /// one its sending domain stages into mid-epoch, each message keyed with
  /// boundarySeq(), and the published one its destination drains. The
  /// epoch barrier orders each batch's writes before its reads, so neither
  /// side takes a lock.
  class Inbox {
   public:
    /// Orchestrating thread, at the barrier, every worker parked: make the
    /// staged batch the published one. The published batch is empty here
    /// (drained at the destination's last epoch start), so this is a swap.
    virtual void publish() = 0;
    /// Due time of the earliest published message; SimTime::max() if none.
    [[nodiscard]] virtual SimTime earliest() const = 0;
    /// Destination domain's thread, at its epoch start: arm every
    /// published message in the destination under its key, leaving the
    /// published batch empty. The sender may be staging meanwhile.
    virtual void drain() = 0;
    /// Messages staged or published and not yet drained.
    [[nodiscard]] virtual std::size_t staged() const = 0;

   protected:
    ~Inbox() = default;
  };

  ShardedSimulator(std::vector<Simulator*> domains, Duration lookahead);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] int domainCount() const { return static_cast<int>(domains_.size()); }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Register a directed boundary channel into `dstDomain` with the given
  /// propagation delay (must be >= the lookahead floor). A cut channel
  /// (sender in another domain) passes the `inbox` that stages it, which
  /// must outlive every later run; a channel whose ends share a domain
  /// passes nullptr, and its sender arms each message itself under its
  /// key. Returns the channel id that keys its messages via boundarySeq().
  /// Channels must be registered in the same (topology-construction) order
  /// at every domain count.
  std::uint32_t addChannel(int dstDomain, Duration delay, Inbox* inbox);

  /// The reserved sequence key of message number `fifo` (0, 1, ...) sent on
  /// `channel`: bit 63 set, then the channel id, then the counter. Local
  /// sequences (EventQueue::reserveSeq) stay far below 2^63, so boundary
  /// deliveries sort after same-time local work.
  [[nodiscard]] static constexpr std::uint64_t boundarySeq(std::uint32_t channel,
                                                           std::uint64_t fifo) {
    return kBoundaryBand | (static_cast<std::uint64_t>(channel) << kFifoBits) | fifo;
  }

  /// Run all domains to `deadline` (events at the deadline execute, same
  /// contract as Simulator::runUntil). On return every domain's clock is
  /// exactly `deadline`. Channel messages beyond the deadline stay pending
  /// for the next run.
  void runUntil(SimTime deadline);
  /// Run for `d` from now (all domain clocks agree between runs).
  void runFor(Duration d) { runUntil(now() + d); }

  [[nodiscard]] SimTime now() const { return domains_[0]->now(); }
  [[nodiscard]] std::uint64_t eventsExecuted() const;
  [[nodiscard]] std::uint64_t domainEvents(int domain) const;
  /// Messages sitting in cut channels (not yet drained) — tests/teardown.
  [[nodiscard]] std::size_t pendingChannelMessages() const;

  /// Host seconds `domain` spent in its epochs (draining its inbound
  /// channels and running its events), summed over every run so far.
  [[nodiscard]] double domainBusySeconds(int domain) const;
  /// Host seconds of the runs so far in which `domain` was not in an
  /// epoch: waiting at the barrier for slower domains, plus the
  /// orchestrating thread's step between epochs. Busy + wait is the same
  /// total for every domain.
  [[nodiscard]] double domainWaitSeconds(int domain) const;

  /// The domain whose epoch the calling thread is executing; nullptr
  /// outside an epoch. A PacketPool compares it with its own domain to
  /// tell a release on its owner's thread from one on another domain's.
  [[nodiscard]] static const Simulator* runningDomain() { return running_; }

 private:
  void workerLoop(int domain);
  void runEpoch(SimTime horizon);
  /// One domain's share of an epoch, on that domain's thread.
  void runDomain(int domain, SimTime horizon);

  static constexpr std::uint64_t kBoundaryBand = std::uint64_t{1} << 63;
  static constexpr int kFifoBits = 40;
  static constexpr std::uint64_t kMaxChannels = std::uint64_t{1} << (63 - kFifoBits);

  static inline thread_local const Simulator* running_ = nullptr;

  std::vector<Simulator*> domains_;
  Duration lookahead_;
  std::uint32_t channels_ = 0;  ///< ids handed out, cut or not
  std::vector<std::vector<Inbox*>> inbound_;  ///< cut channels per destination, id order
  std::vector<double> busy_s_;  ///< per domain, written by its own thread
  double run_s_ = 0.0;          ///< host seconds inside runUntil

  // Epoch barrier: the orchestrator bumps start_gen_ with the horizon set,
  // workers run their domain and count themselves into done_.
  std::mutex mutex_;
  std::condition_variable cv_;
  SimTime horizon_ = SimTime::zero();
  std::uint64_t start_gen_ = 0;
  int done_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace scidmz::sim
