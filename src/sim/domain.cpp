#include "sim/domain.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace scidmz::sim {

namespace {
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
}  // namespace

ShardedSimulator::ShardedSimulator(std::vector<Simulator*> domains, Duration lookahead)
    : domains_(std::move(domains)), lookahead_(lookahead) {
  if (domains_.empty()) {
    throw std::invalid_argument("ShardedSimulator: at least one domain required");
  }
  for (Simulator* d : domains_) {
    if (d == nullptr) throw std::invalid_argument("ShardedSimulator: null domain");
  }
  if (lookahead_ <= Duration::zero()) {
    throw std::invalid_argument("ShardedSimulator: lookahead must be positive");
  }
  inbound_.resize(domains_.size());
  busy_s_.assign(domains_.size(), 0.0);
  workers_.reserve(domains_.size() - 1);
  for (int d = 1; d < domainCount(); ++d) {
    workers_.emplace_back([this, d] { workerLoop(d); });
  }
}

ShardedSimulator::~ShardedSimulator() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::uint32_t ShardedSimulator::addChannel(int dstDomain, Duration delay, Inbox* inbox) {
  if (dstDomain < 0 || dstDomain >= domainCount()) {
    throw std::invalid_argument("ShardedSimulator: channel destination out of range");
  }
  if (delay < lookahead_) {
    throw std::invalid_argument(
        "ShardedSimulator: channel delay below the lookahead floor");
  }
  if (channels_ >= kMaxChannels) {
    throw std::length_error("ShardedSimulator: channel id space exhausted");
  }
  if (inbox != nullptr) inbound_[static_cast<std::size_t>(dstDomain)].push_back(inbox);
  return channels_++;
}

void ShardedSimulator::runDomain(int domain, SimTime horizon) {
  const auto start = Clock::now();
  const auto d = static_cast<std::size_t>(domain);
  running_ = domains_[d];
  for (Inbox* inbox : inbound_[d]) inbox->drain();
  domains_[d]->runBefore(horizon);
  running_ = nullptr;
  busy_s_[d] += secondsSince(start);
}

void ShardedSimulator::runEpoch(SimTime horizon) {
  if (domainCount() == 1) {
    runDomain(0, horizon);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mutex_);
    horizon_ = horizon;
    done_ = 0;
    ++start_gen_;
  }
  cv_.notify_all();
  runDomain(0, horizon);
  std::unique_lock<std::mutex> lk(mutex_);
  cv_.wait(lk, [this] { return done_ == domainCount() - 1; });
}

void ShardedSimulator::runUntil(SimTime deadline) {
  const auto start = Clock::now();
  // Exclusive horizon one tick past the deadline: runBefore(past) executes
  // every event with time <= deadline, matching Simulator::runUntil.
  const SimTime past = deadline + Duration::nanoseconds(1);
  for (;;) {
    SimTime tmin = SimTime::max();
    for (const auto& inbound : inbound_) {
      for (Inbox* inbox : inbound) {
        inbox->publish();
        tmin = std::min(tmin, inbox->earliest());
      }
    }
    for (Simulator* d : domains_) tmin = std::min(tmin, d->nextEventTime());
    SimTime horizon = past;
    if (tmin < past && tmin + lookahead_ < past) horizon = tmin + lookahead_;
    runEpoch(horizon);
    if (horizon == past) break;
  }
  // Canonicalize: messages produced in the final epoch arrive at
  // >= tmin + lookahead > deadline and stay staged in their channels.
  for (Simulator* d : domains_) d->advanceClockTo(deadline);
  run_s_ += secondsSince(start);
}

std::uint64_t ShardedSimulator::eventsExecuted() const {
  std::uint64_t total = 0;
  for (const Simulator* d : domains_) total += d->eventsExecuted();
  return total;
}

std::uint64_t ShardedSimulator::domainEvents(int domain) const {
  return domains_[static_cast<std::size_t>(domain)]->eventsExecuted();
}

std::size_t ShardedSimulator::pendingChannelMessages() const {
  std::size_t n = 0;
  for (const auto& inbound : inbound_) {
    for (const Inbox* inbox : inbound) n += inbox->staged();
  }
  return n;
}

double ShardedSimulator::domainBusySeconds(int domain) const {
  return busy_s_[static_cast<std::size_t>(domain)];
}

double ShardedSimulator::domainWaitSeconds(int domain) const {
  return std::max(0.0, run_s_ - domainBusySeconds(domain));
}

void ShardedSimulator::workerLoop(int domain) {
  std::uint64_t seen = 0;
  for (;;) {
    SimTime horizon = SimTime::zero();
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_.wait(lk, [&] { return shutdown_ || start_gen_ != seen; });
      if (shutdown_) return;
      seen = start_gen_;
      horizon = horizon_;
    }
    runDomain(domain, horizon);
    {
      std::lock_guard<std::mutex> lk(mutex_);
      ++done_;
    }
    cv_.notify_all();
  }
}

}  // namespace scidmz::sim
