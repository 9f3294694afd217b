// The Simulator owns the clock and the event queue and drives a run.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/codec.hpp"
#include "sim/event_queue.hpp"
#include "sim/profiler.hpp"
#include "sim/units.hpp"

namespace scidmz::sim {

/// Single-threaded discrete-event simulator.
///
/// Components hold a Simulator& and schedule callbacks; the owner calls
/// run() / runFor() / runUntil(). The clock only moves at event boundaries.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `cb` after `delay` (>= 0) from now. Templated end-to-end so
  /// the callable is materialized once, in the event queue's slot table.
  template <typename F>
  EventId schedule(Duration delay, F&& cb) {
    return queue_.schedule(now_ + (delay < Duration::zero() ? Duration::zero() : delay),
                           std::forward<F>(cb));
  }

  /// Schedule `cb` at an absolute time (clamped to now if in the past).
  template <typename F>
  EventId scheduleAt(SimTime at, F&& cb) {
    return queue_.schedule(at < now_ ? now_ : at, std::forward<F>(cb));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Allocate the next event sequence number without scheduling; arm it
  /// later with restoreSchedule(). See EventQueue::reserveSeq().
  std::uint64_t reserveSeq() { return queue_.reserveSeq(); }

  /// Schedule a *daemon* event: background housekeeping (telemetry sampling
  /// ticks, watchdogs) that should never keep a run() alive on its own.
  /// run() returns once only daemon events remain; runFor()/runUntil()
  /// still fire daemons up to their deadline, so periodic probes sample
  /// through idle windows. Daemon events must not be cancelled via
  /// cancel() — the pending-daemon count would leak; let them fire and
  /// simply not reschedule.
  template <typename F>
  EventId scheduleDaemon(Duration delay, F&& cb) {
    const SimTime at = now_ + (delay < Duration::zero() ? Duration::zero() : delay);
    return restoreScheduleDaemon(at, reserveSeq(), std::forward<F>(cb));
  }

  /// Run until the event queue drains (daemon events excluded) or stop()
  /// is called.
  void run() { runUntil(SimTime::max()); }

  /// Run events with time <= deadline; the clock ends at
  /// min(deadline, time of last event) — or exactly deadline if any event
  /// remained beyond it. With an infinite deadline, pending daemon events
  /// alone do not keep the loop running.
  void runUntil(SimTime deadline) {
    stopped_ = false;
    const bool finite = deadline != SimTime::max();
    while (!stopped_ && (finite ? !queue_.empty() : queue_.size() > daemons_)) {
      if (queue_.nextTime() > deadline) {
        now_ = deadline;
        return;
      }
      runNext();
    }
    if (!stopped_ && finite && now_ < deadline) now_ = deadline;
  }

  /// Run for `d` of simulated time from now.
  void runFor(Duration d) { runUntil(now_ + d); }

  // --- Sharded-execution seam (sim::ShardedSimulator) ----------------------

  /// Run events with time strictly < `horizon` (the exclusive epoch window
  /// of the conservative sharded scheduler). The clock is left at the last
  /// executed event — the epoch driver canonicalizes it afterwards via
  /// advanceClockTo() — so an idle epoch moves nothing.
  void runBefore(SimTime horizon) {
    while (!queue_.empty()) {
      if (queue_.nextTime() >= horizon) return;
      runNext();
    }
  }

  /// Time of the next pending event; SimTime::max() when the queue is
  /// empty. Used to compute the conservative epoch horizon.
  [[nodiscard]] SimTime nextEventTime() { return queue_.nextTime(); }

  /// Move the clock forward to `t` without executing anything (no-op if the
  /// clock is already past). The sharded driver uses this so every domain's
  /// clock agrees at run boundaries, like a plain runUntil() would.
  void advanceClockTo(SimTime t) {
    if (t > now_) now_ = t;
  }

  /// Stop the current run() after the in-flight callback returns.
  void stop() { stopped_ = true; }

  /// Teardown path: drop every pending event, destroying the callbacks and
  /// whatever they captured (pool handles, component pointers). Callers use
  /// this to sequence resource destruction — e.g. net::Context clears the
  /// queue in its destructor so in-flight packet handles release into a
  /// still-alive pool. Daemon accounting resets with the queue.
  void clearPendingEvents() {
    queue_.clear();
    daemons_ = 0;
  }

  // --- Snapshot/restore seam -----------------------------------------------
  //
  // Restore is rebuild-then-overlay: the caller first reconstructs the
  // scenario identically in code (closures cannot be serialized), then
  // beginRestore() drops every construction-time event and resets the
  // clock, and each component re-arms its own pending events under their
  // original (time, sequence) keys via restoreSchedule(). Pop order is
  // strictly (at, seq), so re-arm call order is irrelevant and the restored
  // run is byte-identical to the uninterrupted one.

  /// The (time, sequence) key of a pending event (invalid for fired,
  /// cancelled, or stale handles). Components serialize this key alongside
  /// their armed-timer state.
  [[nodiscard]] EventKey eventKey(EventId id) const { return queue_.eventKey(id); }

  /// Reset clock, executed-event count, and sequence numbering to the
  /// snapshotted values, dropping every pending event. Components then
  /// re-arm via restoreSchedule()/restoreScheduleDaemon().
  void beginRestore(SimTime now, std::uint64_t executed, std::uint64_t nextSeq) {
    queue_.beginRestore(now, nextSeq);
    daemons_ = 0;
    stopped_ = false;
    now_ = now;
    executed_ = executed;
  }

  /// Arm an event under an already-allocated key: a snapshotted one, one
  /// from reserveSeq(), or a boundary channel's reserved key.
  template <typename F>
  EventId restoreSchedule(SimTime at, std::uint64_t seq, F&& cb) {
    return queue_.restoreSchedule(at, seq, std::forward<F>(cb));
  }

  /// Arm a daemon event under an allocated key (scheduleDaemon()'s, or a
  /// snapshotted one), with the accounting wrapper that keeps run()
  /// termination and profiler attribution identical after a restore.
  template <typename F>
  EventId restoreScheduleDaemon(SimTime at, std::uint64_t seq, F&& cb) {
    ++daemons_;
    return queue_.restoreSchedule(at, seq, [this, fn = std::forward<F>(cb)]() mutable {
      --daemons_;
      if (profiler_ != nullptr) profiler_->noteDaemonEvent();
      fn();
    });
  }

  [[nodiscard]] std::uint64_t eventsExecuted() const { return executed_; }
  /// Sequence counter state for snapshots (total events ever scheduled).
  [[nodiscard]] std::uint64_t scheduledTotal() const { return queue_.scheduledTotal(); }
  [[nodiscard]] bool pendingEvents() const { return !queue_.empty(); }
  [[nodiscard]] std::size_t pendingEventCount() const { return queue_.size(); }
  /// Daemon events currently pending (scheduled and not yet fired).
  [[nodiscard]] std::size_t pendingDaemonCount() const { return daemons_; }

  /// Attach/detach the self-profiler (nullptr = detached, zero overhead:
  /// the hot loop takes one always-predicted branch). The profiler is not
  /// owned and must outlive the simulator or be detached first.
  void setProfiler(Profiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] Profiler* profiler() const { return profiler_; }

 private:
  /// Pop the next event, move the clock to it and run it (under the
  /// profiler when one is attached). Precondition: the queue is not empty.
  void runNext() {
    auto ev = queue_.pop();
    now_ = ev.at;
    ++executed_;
    if (profiler_ == nullptr) {
      ev.cb();
      return;
    }
    profiler_->beginEvent();
    ev.cb();
    profiler_->endEvent(queue_.size(), queue_.parkedCount());
  }

  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t executed_ = 0;
  std::size_t daemons_ = 0;
  bool stopped_ = false;
  Profiler* profiler_ = nullptr;
};

/// Serialize one optional pending timer through `c`: writes armed-ness plus
/// the (at, seq) key; on read, re-arms `cb` under the original key and
/// stores the fresh handle in `slot`. Returns the number of pending events
/// claimed (0 or 1) for the snapshot's event accounting.
template <typename F>
std::uint64_t codecTimer(Codec& c, Simulator& sim, EventId& slot, F&& cb) {
  if (c.writing()) {
    const EventKey key = sim.eventKey(slot);
    bool armed = key.valid;
    SimTime at = key.at;
    std::uint64_t seq = key.seq;
    c.b(armed);
    if (!armed) return 0;
    codecTime(c, at);
    c.vu64(seq);
    return 1;
  }
  bool armed = false;
  c.b(armed);
  if (!armed) {
    slot = EventId{};
    return 0;
  }
  SimTime at = SimTime::zero();
  std::uint64_t seq = 0;
  codecTime(c, at);
  c.vu64(seq);
  slot = sim.restoreSchedule(at, seq, std::forward<F>(cb));
  return 1;
}

}  // namespace scidmz::sim
