#include "tcp/fluid.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "net/device.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "tcp/connection.hpp"
#include "tcp/mathis.hpp"

namespace scidmz::tcp {

namespace {
/// Sentinel for "no loss bound": larger than any physical rate so it never
/// binds, small enough that arithmetic on it stays finite.
constexpr double kUnboundedBps = 1e30;
/// Cap on the effective window when RFC 1323 scaling is off (either end).
constexpr std::uint64_t kUnscaledWindowBytes = 65535;
}  // namespace

double ccResponseBps(CcAlgorithm algorithm, double mssBits, double rttSeconds, double lossRate) {
  if (lossRate <= 0.0 || rttSeconds <= 0.0) return kUnboundedBps;
  const double reno =
      kRenoCalibration * mssBits / rttSeconds * (kMathisC / std::sqrt(lossRate));
  switch (algorithm) {
    case CcAlgorithm::kReno:
      return reno;
    case CcAlgorithm::kHtcp:
      // H-TCP's adaptive additive increase refills the pipe faster after a
      // loss epoch; modeled as a constant response-function gain over Reno
      // (adequate at the loss rates the scenarios sweep).
      return 1.25 * reno;
    case CcAlgorithm::kCubic: {
      // RFC 8312 average-window approximation (C = 0.4, beta = 0.7):
      // W = (C*(4-b)/(4b))^(1/4) * (RTT/p^3)^(1/4) segments, so goodput
      // scales as RTT^(-3/4) p^(-3/4). Never worse than the Reno bound
      // (CUBIC falls back to Reno-friendly mode in that regime).
      const double k = 0.8286;  // (0.4 * 3.3 / 2.8)^(1/4)
      const double cubic =
          k * mssBits * std::pow(rttSeconds, -0.75) * std::pow(lossRate, -0.75);
      return cubic > reno ? cubic : reno;
    }
  }
  return reno;
}

FluidEngine::FlowId FluidEngine::addFlow(net::Host& src, net::Host& dst, const TcpConfig& config,
                                         int streams, FluidFlowHandle* owner) {
  if (ctx_ == nullptr) ctx_ = &src.ctx();
  FlowId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    flows_.emplace_back();
    hot_rate_.push_back(0.0);
    hot_carry_.push_back(0.0);
    hot_target_.push_back(0);
    hot_delivered_.push_back(0);
    id = static_cast<FlowId>(flows_.size());
  }
  Flow& f = flows_[id - 1];
  const auto epoch = f.epoch;
  f = Flow{};
  f.epoch = epoch;
  f.inUse = true;
  f.owner = owner;
  hot_rate_[id - 1] = 0.0;
  hot_carry_[id - 1] = 0.0;
  hot_target_[id - 1] = 0;
  hot_delivered_[id - 1] = 0;
  rates_dirty_ = true;
  f.weight = streams < 1 ? 1 : streams;
  f.route = routeTo(src, dst);
  const Route& route = routes_[f.route];
  const double mssBytes = static_cast<double>(src.mss().byteCount());
  f.mssBytes = mssBytes;
  f.wireFactor =
      (mssBytes + static_cast<double>(net::kTcpIpHeaderBytes.byteCount())) / mssBytes;
  const double rttSeconds = (route.oneWayDelay * 2).toSeconds();
  std::uint64_t window = std::min(config.sndBuf.byteCount(), config.rcvBuf.byteCount());
  if (!config.windowScaling) window = std::min(window, kUnscaledWindowBytes);
  if (rttSeconds > 0.0) {
    f.responseBps = static_cast<double>(f.weight) *
                    ccResponseBps(config.algorithm, mssBytes * 8.0, rttSeconds, route.lossRate);
    f.windowBps =
        static_cast<double>(f.weight) * static_cast<double>(window) * 8.0 / rttSeconds;
  } else {
    f.responseBps = kUnboundedBps;
    f.windowBps = kUnboundedBps;
  }
  f.bottleneckGoodputBps =
      static_cast<double>(route.bottleneck.bps()) / f.wireFactor;
  if (f.bottleneckGoodputBps <= 0.0) f.bottleneckGoodputBps = kUnboundedBps;
  return id;
}

void FluidEngine::removeFlow(FlowId id) {
  Flow* f = flowFor(id);
  if (f == nullptr) return;
  ++f->epoch;  // invalidates any pending establishment event
  f->inUse = false;
  f->owner = nullptr;
  hot_rate_[id - 1] = 0.0;  // a stale active_ entry now skips this slot
  hot_carry_[id - 1] = 0.0;
  hot_target_[id - 1] = 0;
  hot_delivered_[id - 1] = 0;
  rates_dirty_ = true;
  free_ids_.push_back(id);
  // Any published demand is withdrawn at the next tick; if the ticker is
  // not armed, this flow was not contributing demand in the first place.
}

void FluidEngine::startFlow(FlowId id) {
  Flow* f = flowFor(id);
  if (f == nullptr || f->started) return;
  f->started = true;
  if (!routable(f->route)) return;  // black-holed SYN: never establishes
  if (ctx_->telemetry().enabled() && !tel_init_) initTelemetry();
  // One path RTT of handshake (SYN out, SYN|ACK back), like the client side
  // of the packet model.
  const auto epoch = f->epoch;
  f->establishEpoch = epoch;
  f->establishEvent = ctx_->sim().schedule(routes_[f->route].oneWayDelay * 2,
                                           [this, id, epoch] { establishmentFire(id, epoch); });
}

void FluidEngine::establishmentFire(FlowId id, std::uint32_t epoch) {
  Flow* flow = flowFor(id);
  if (flow == nullptr || flow->epoch != epoch) return;
  flow->established = true;
  flow->establishedAt = ctx_->sim().now();
  flow->lastDeliveryAt = flow->establishedAt;
  rates_dirty_ = true;
  if (flow->owner != nullptr) flow->owner->engineEstablished();
  wake(id - 1);
}

void FluidEngine::queueData(FlowId id, sim::DataSize bytes) {
  Flow* f = flowFor(id);
  if (f == nullptr) return;
  hot_target_[id - 1] += bytes.byteCount();
  f->completeNotified = false;
  rates_dirty_ = true;
  wake(id - 1);
}

bool FluidEngine::established(FlowId id) const {
  const Flow* f = flowFor(id);
  return f != nullptr && f->established;
}

bool FluidEngine::sendComplete(FlowId id) const {
  const Flow* f = flowFor(id);
  return f != nullptr && hot_target_[id - 1] > 0 &&
         hot_delivered_[id - 1] >= hot_target_[id - 1];
}

sim::DataSize FluidEngine::deliveredBytes(FlowId id) const {
  const Flow* f = flowFor(id);
  return f != nullptr ? sim::DataSize::bytes(hot_delivered_[id - 1]) : sim::DataSize::zero();
}

sim::DataRate FluidEngine::goodput(FlowId id) const {
  const Flow* f = flowFor(id);
  if (f == nullptr || !f->established || hot_delivered_[id - 1] == 0) {
    return sim::DataRate::zero();
  }
  // Drained flows carry a back-dated completion stamp; in-flight flows are
  // measured against the current sim time (delivery tracks the ticker).
  const bool drained =
      hot_target_[id - 1] > 0 && hot_delivered_[id - 1] >= hot_target_[id - 1];
  const auto end = drained ? f->lastDeliveryAt : ctx_->sim().now();
  const auto span = end - f->establishedAt;
  if (span <= sim::Duration::zero()) return sim::DataRate::zero();
  return sim::DataRate::bitsPerSecond(static_cast<std::uint64_t>(
      static_cast<double>(hot_delivered_[id - 1]) * 8.0 / span.toSeconds()));
}

sim::DataRate FluidEngine::currentRate(FlowId id) const {
  const Flow* f = flowFor(id);
  if (f == nullptr || hot_rate_[id - 1] <= 0.0) return sim::DataRate::zero();
  return sim::DataRate::bitsPerSecond(static_cast<std::uint64_t>(hot_rate_[id - 1]));
}

std::uint64_t FluidEngine::retransmitEstimate(FlowId id) const {
  const Flow* f = flowFor(id);
  if (f == nullptr) return 0;
  const double p = routes_[f->route].lossRate;
  if (p <= 0.0 || p >= 1.0 || f->mssBytes <= 0.0) return 0;
  const double segments = static_cast<double>(hot_delivered_[id - 1]) / f->mssBytes;
  return static_cast<std::uint64_t>(std::llround(segments * p / (1.0 - p)));
}

std::uint32_t FluidEngine::routeTo(net::Host& src, net::Host& dst) {
  const net::FlowPath path = net::traceFlowPath(src, dst);
  // Interned by content, as bytes: the hops' link_dirs_ indices (touched in
  // path order, as every trace always has), delay, bottleneck and loss.
  const struct { std::int64_t ns; std::uint64_t bps; double loss; } tail{
      path.oneWayDelay.ns(), path.bottleneck.bps(), path.lossRate};
  const std::size_t hopBytes = path.hops.size() * sizeof(std::uint32_t);
  route_key_.resize(hopBytes + sizeof tail);
  char* key = route_key_.data();
  for (std::size_t h = 0; h < path.hops.size(); ++h) {
    const std::uint32_t idx = linkDirIndex(path.hops[h].first, path.hops[h].second);
    std::memcpy(key + h * sizeof idx, &idx, sizeof idx);
  }
  std::memcpy(key + hopBytes, &tail, sizeof tail);
  const auto [it, inserted] =
      route_ids_.try_emplace(route_key_, static_cast<std::uint32_t>(routes_.size()));
  if (inserted) {
    Route& route = routes_.emplace_back(
        Route{{}, path.oneWayDelay, path.bottleneck, path.lossRate});
    for (const auto& [link, end] : path.hops) route.hops.push_back(linkDirIndex(link, end));
  }
  return it->second;
}

void FluidEngine::registerPacketRoute(std::uint32_t route) {
  for (const auto idx : routes_[route].hops) ++link_dirs_[idx].packetFlows;
  rates_dirty_ = true;
}

void FluidEngine::deregisterPacketRoute(std::uint32_t route) {
  for (const auto idx : routes_[route].hops) {
    if (link_dirs_[idx].packetFlows > 0) --link_dirs_[idx].packetFlows;
  }
  rates_dirty_ = true;
}

std::size_t FluidEngine::activeFlowCount() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].inUse && activeSendingAt(i)) ++n;
  }
  return n;
}

const FluidEngine::Flow* FluidEngine::flowFor(FlowId id) const {
  if (id == 0 || id > flows_.size()) return nullptr;
  const Flow& f = flows_[id - 1];
  return f.inUse ? &f : nullptr;
}

FluidEngine::Flow* FluidEngine::flowFor(FlowId id) {
  return const_cast<Flow*>(std::as_const(*this).flowFor(id));
}

std::uint32_t FluidEngine::linkDirIndex(net::Link* link, int end) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(link)) << 1) |
      static_cast<std::uint64_t>(end & 1);
  const auto [it, inserted] =
      link_dir_index_.try_emplace(key, static_cast<std::uint32_t>(link_dirs_.size()));
  if (inserted) {
    LinkDir dir;
    dir.link = link;
    dir.end = end & 1;
    dir.baselineBytes = link->stats(end).bytesDelivered.byteCount();
    link_dirs_.push_back(dir);
  }
  return it->second;
}

void FluidEngine::wake(std::uint32_t idx) {
  if (!activeSendingAt(idx)) return;
  wake_.push_back(idx);
  ensureTicker();
}

void FluidEngine::ensureTicker() {
  if (ticker_armed_) return;
  ticker_armed_ = true;
  last_tick_ = ctx_->sim().now();
  // Re-anchor the packet-traffic baselines so the first tick measures only
  // the coming interval, then give freshly active flows an initial rate
  // (reusing the last measured packet load, zero on first arm).
  for (LinkDir& dir : link_dirs_) {
    dir.baselineBytes = dir.link->stats(dir.end).bytesDelivered.byteCount();
  }
  recomputeRates();
  rates_dirty_ = false;
  ticker_event_ = ctx_->sim().schedule(kTick, [this] { onTick(); });
}

void FluidEngine::onTick() {
  if (sim::Profiler* prof = ctx_->sim().profiler(); prof != nullptr) {
    prof->setSource("fluid.tick");
  }
  const auto now = ctx_->sim().now();
  const double dt = (now - last_tick_).toSeconds();
  integrate(dt);
  const bool linksChanged = measureLinks(dt);
  last_tick_ = now;
  // Steady state is the common case: no flow arrived, drained, or was
  // re-targeted, and the measured packet load is unchanged — the rates
  // (and the published demand) are already correct, skip the recompute.
  if (rates_dirty_ || linksChanged) {
    recomputeRates();
    rates_dirty_ = false;
  }
  if (active_left_ > 0) {
    ticker_event_ = ctx_->sim().schedule(kTick, [this] { onTick(); });
  } else {
    withdrawDemand();
    ticker_armed_ = false;
  }
}

void FluidEngine::integrate(double dtSeconds) {
  if (dtSeconds <= 0.0 || active_.empty()) return;
  std::uint64_t telBytes = 0;
  const std::size_t count = active_.size();  // callbacks never mutate active_
  for (std::size_t k = 0; k < count; ++k) {
    const ActiveEntry e = active_[k];
    const std::size_t i = e.idx;
    const double rate = hot_rate_[i];
    if (rate <= 0.0) continue;  // removed or re-added since the rebuild
    const std::uint64_t target = hot_target_[i];
    const std::uint64_t delivered = hot_delivered_[i];
    if (delivered >= target) continue;
    const double advance = rate * dtSeconds / 8.0 + hot_carry_[i];
    const auto whole = static_cast<std::uint64_t>(advance);
    const std::uint64_t remaining = target - delivered;
    std::uint64_t delta;
    bool finished = false;
    if (whole >= remaining) {
      // The flow finished mid-interval: clamp, and back-date the finish so
      // goodput reflects the analytic rate, not the tick granularity.
      delta = remaining;
      hot_carry_[i] = 0.0;
      finished = true;
      Flow& f = flows_[i];
      const double finishSeconds = static_cast<double>(remaining) * 8.0 / rate;
      f.lastDeliveryAt = last_tick_ + sim::Duration::fromSeconds(finishSeconds);
      rates_dirty_ = true;  // its share frees up for the others
    } else {
      delta = whole;
      hot_carry_[i] = advance - static_cast<double>(whole);
    }
    hot_delivered_[i] = delivered + delta;
    telBytes += delta;
    if (delta > 0 && e.notify) {
      Flow& f = flows_[i];
      if (f.owner != nullptr && f.owner->onDelivered) {
        f.owner->onDelivered(sim::DataSize::bytes(delta));
      }
    }
    // Completion re-reads the hot state: an onDelivered callback may have
    // queued more data, in which case the flow is no longer drained.
    if (finished) {
      Flow& f = flows_[i];
      if (f.inUse && hot_target_[i] > 0 && hot_delivered_[i] >= hot_target_[i] &&
          !f.completeNotified) {
        f.completeNotified = true;
        ++flows_completed_;
        if (tel_completed_ != nullptr) ++*tel_completed_;
        if (f.owner != nullptr) f.owner->engineSendComplete();
      }
    }
  }
  if (tel_bytes_ != nullptr) *tel_bytes_ += telBytes;
}

bool FluidEngine::measureLinks(double dtSeconds) {
  if (dtSeconds <= 0.0) return false;
  bool changed = false;
  for (LinkDir& dir : link_dirs_) {
    const std::uint64_t bytes = dir.link->stats(dir.end).bytesDelivered.byteCount();
    const double wireBps = static_cast<double>(bytes - dir.baselineBytes) * 8.0 / dtSeconds;
    dir.baselineBytes = bytes;
    if (wireBps != dir.measuredWireBps) {
      dir.measuredWireBps = wireBps;
      changed = true;
    }
  }
  return changed;
}

void FluidEngine::recomputeRates() {
  for (LinkDir& dir : link_dirs_) {
    dir.fluidWeight = 0.0;
    dir.wireDemandBps = 0.0;
    dir.publishBps = 0.0;
  }
  // Pass 1 (flows, id order): unconstrained per-flow caps, link weights,
  // and the active list the per-tick integration iterates. Only the
  // previous active list and the wake list can hold a sending flow; both
  // are walked as one ascending, duplicate-free sequence, so the order
  // (and every floating-point sum below) matches a scan of all flows.
  std::sort(wake_.begin(), wake_.end());
  prev_active_.swap(active_);
  active_.clear();
  std::size_t a = 0;
  std::size_t w = 0;
  std::uint32_t last = UINT32_MAX;
  while (a < prev_active_.size() || w < wake_.size()) {
    const bool fromPrev =
        w == wake_.size() || (a < prev_active_.size() && prev_active_[a].idx <= wake_[w]);
    const std::uint32_t i = fromPrev ? prev_active_[a++].idx : wake_[w++];
    if (i == last) continue;
    last = i;
    Flow& f = flows_[i];
    if (!f.inUse || !activeSendingAt(i)) {
      hot_rate_[i] = 0.0;
      continue;
    }
    hot_rate_[i] = std::min({f.responseBps, f.windowBps, f.bottleneckGoodputBps});
    active_.push_back({static_cast<std::uint32_t>(i), f.notify});
    for (const auto idx : routes_[f.route].hops) {
      link_dirs_[idx].fluidWeight += static_cast<double>(f.weight);
    }
  }
  wake_.clear();
  active_left_ = active_.size();
  // Pass 2 (links): capacity available to fluid flows — the measured
  // leftover, floored by a flow-count-proportional entitlement so the
  // fluid/packet split cannot lock in wherever it happens to start.
  for (LinkDir& dir : link_dirs_) {
    if (dir.fluidWeight <= 0.0) {
      dir.availWireBps = 0.0;
      continue;
    }
    const double capacity = static_cast<double>(dir.link->rate().bps());
    const double leftover =
        capacity > dir.measuredWireBps ? capacity - dir.measuredWireBps : 0.0;
    const double entitlement =
        capacity * dir.fluidWeight /
        (dir.fluidWeight + static_cast<double>(dir.packetFlows));
    dir.availWireBps = std::max(leftover, entitlement);
  }
  // Pass 3 (flows, id order): aggregate unconstrained wire demand per link.
  for (const ActiveEntry& e : active_) {
    const Flow& f = flows_[e.idx];
    for (const auto idx : routes_[f.route].hops) {
      link_dirs_[idx].wireDemandBps += hot_rate_[e.idx] * f.wireFactor;
    }
  }
  // Pass 4 (flows, id order): scale each flow by its most-congested hop.
  total_rate_bps_ = 0.0;
  for (const ActiveEntry& e : active_) {
    const Flow& f = flows_[e.idx];
    double scale = 1.0;
    for (const auto idx : routes_[f.route].hops) {
      const LinkDir& dir = link_dirs_[idx];
      if (dir.wireDemandBps > dir.availWireBps && dir.wireDemandBps > 0.0) {
        scale = std::min(scale, dir.availWireBps / dir.wireDemandBps);
      }
    }
    hot_rate_[e.idx] *= scale;
    total_rate_bps_ += hot_rate_[e.idx];
  }
  // Pass 5: publish per-link aggregate demand (wire bits/s) for
  // Link::effectiveRate — this is where packet flows feel the fluid load.
  for (const ActiveEntry& e : active_) {
    const Flow& f = flows_[e.idx];
    for (const auto idx : routes_[f.route].hops) {
      link_dirs_[idx].publishBps += hot_rate_[e.idx] * f.wireFactor;
    }
  }
  for (LinkDir& dir : link_dirs_) {
    const double capacity = static_cast<double>(dir.link->rate().bps());
    double demand = std::min(dir.publishBps, capacity);
    // What packet flows are charged is capped at the fluid entitlement:
    // fluid may opportunistically run above it into measured leftover, but
    // it may never squeeze packet flows below their per-flow share — that
    // measured leftover would otherwise be self-fulfilling (packet flows
    // stay slow because the published demand keeps them slow).
    if (dir.packetFlows > 0 && dir.fluidWeight > 0.0) {
      const double entitlement =
          capacity * dir.fluidWeight /
          (dir.fluidWeight + static_cast<double>(dir.packetFlows));
      demand = std::min(demand, entitlement);
    }
    dir.link->setFluidDemand(
        dir.end, sim::DataRate::bitsPerSecond(static_cast<std::uint64_t>(demand)));
  }
}

void FluidEngine::withdrawDemand() {
  for (LinkDir& dir : link_dirs_) {
    dir.publishBps = 0.0;
    dir.link->setFluidDemand(dir.end, sim::DataRate::zero());
  }
}

std::uint64_t FluidEngine::serialize(sim::Codec& c) {
  std::uint64_t claimed = 0;
  bool bound = ctx_ != nullptr;
  c.b(bound);
  if (!c.writing() && bound != (ctx_ != nullptr)) {
    c.reader().markFailed();
    return claimed;
  }
  if (!bound) return claimed;

  // Per-flow dynamic state, id order. The rebuild created the same flows in
  // the same slots, so everything derived from the path or config (route,
  // response/window/bottleneck rates, weight) is already correct.
  std::uint64_t flowCount = flows_.size();
  c.vu64(flowCount);
  if (!c.writing() && flowCount != flows_.size()) {
    c.reader().markFailed();
    return claimed;
  }
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& f = flows_[i];
    c.b(f.inUse);
    c.vu32(f.epoch);
    c.b(f.started);
    c.b(f.established);
    c.b(f.completeNotified);
    c.vu32(f.establishEpoch);
    sim::codecTime(c, f.establishedAt);
    sim::codecTime(c, f.lastDeliveryAt);
    c.f64(hot_rate_[i]);
    c.f64(hot_carry_[i]);
    c.vu64(hot_target_[i]);
    c.vu64(hot_delivered_[i]);
    const FlowId id = static_cast<FlowId>(i + 1);
    const std::uint32_t epoch = f.establishEpoch;
    claimed += sim::codecTimer(c, ctx_->sim(), f.establishEvent,
                               [this, id, epoch] { establishmentFire(id, epoch); });
  }

  // Free-list, so slot recycling continues identically.
  std::uint64_t freeCount = free_ids_.size();
  c.vu64(freeCount);
  if (!c.writing() && freeCount > flows_.size()) {
    c.reader().markFailed();
    return claimed;
  }
  free_ids_.resize(static_cast<std::size_t>(freeCount));
  for (FlowId& id : free_ids_) {
    c.vu32(id);
    if (!c.writing() && (id == 0 || id > flows_.size())) c.reader().markFailed();
  }

  // Per-link-direction aggregates, matched by endpoint-name key rather than
  // position: the rebuild's first-touch order can interleave packet-path
  // registrations differently than the original run did. Parallel links
  // between the same device pair disambiguate by first-touch ordinal.
  auto dirKeys = [this] {
    std::vector<std::string> keys;
    std::unordered_map<std::string, int> seen;
    keys.reserve(link_dirs_.size());
    for (const LinkDir& dir : link_dirs_) {
      std::string base = dir.link->end(0).owner().name() + "|" +
                         dir.link->end(1).owner().name() + "|" + std::to_string(dir.end);
      const int ord = seen[base]++;
      keys.push_back(base + "#" + std::to_string(ord));
    }
    return keys;
  };
  std::uint64_t dirCount = link_dirs_.size();
  c.vu64(dirCount);
  if (!c.writing() && dirCount != link_dirs_.size()) {
    c.reader().markFailed();
    return claimed;
  }
  const auto keys = dirKeys();
  std::unordered_map<std::string, std::uint32_t> byKey;
  for (std::uint32_t i = 0; i < keys.size() && !c.writing(); ++i) byKey.emplace(keys[i], i);
  for (std::uint32_t k = 0; k < link_dirs_.size(); ++k) {
    std::string key = c.writing() ? keys[k] : std::string();
    c.str(key);
    const auto it = byKey.find(key);
    if (!c.writing() && it == byKey.end()) {
      c.reader().markFailed();
      return claimed;
    }
    LinkDir& dir = link_dirs_[c.writing() ? k : it->second];
    c.vint(dir.packetFlows);
    c.vu64(dir.baselineBytes);
    c.f64(dir.measuredWireBps);
    c.f64(dir.fluidWeight);
    c.f64(dir.availWireBps);
    c.f64(dir.wireDemandBps);
    c.f64(dir.publishBps);
  }

  // Active list and tick scheduling state. integrate() indexes the hot
  // arrays by these entries and the recompute merge relies on their id
  // order, so a restore refuses anything but strictly ascending in-range
  // indices.
  std::uint64_t activeCount = active_.size();
  c.vu64(activeCount);
  if (!c.writing() && activeCount > flows_.size()) {
    c.reader().markFailed();
    return claimed;
  }
  active_.resize(static_cast<std::size_t>(activeCount));
  for (std::size_t k = 0; k < active_.size(); ++k) {
    c.vu32(active_[k].idx);
    c.b(active_[k].notify);
    if (!c.writing() && (active_[k].idx >= flows_.size() ||
                         (k > 0 && active_[k].idx <= active_[k - 1].idx))) {
      active_.clear();
      c.reader().markFailed();
      return claimed;
    }
  }
  c.size(active_left_);
  if (!c.writing() && active_left_ > active_.size()) {
    c.reader().markFailed();
    return claimed;
  }
  c.b(rates_dirty_);
  sim::codecTime(c, last_tick_);
  c.vu64(flows_completed_);
  c.f64(total_rate_bps_);
  bool telInit = tel_init_;
  c.b(telInit);
  if (!c.writing() && telInit && !tel_init_ && ctx_->telemetry().enabled()) initTelemetry();
  claimed += sim::codecTimer(c, ctx_->sim(), ticker_event_, [this] { onTick(); });
  if (!c.writing()) {
    ticker_armed_ = ticker_event_.valid();
    // The wake list is not carried: every restored flow that is sending
    // rejoins it, a superset of the original list that the next recompute
    // filters the same way.
    wake_.clear();
    for (std::uint32_t i = 0; i < flows_.size(); ++i) {
      if (flows_[i].inUse && activeSendingAt(i)) wake_.push_back(i);
    }
  }
  return claimed;
}

void FluidEngine::initTelemetry() {
  auto& tel = ctx_->telemetry();
  tel_bytes_ = &tel.metrics().counter("fluid/bytes_delivered");
  tel_completed_ = &tel.metrics().counter("fluid/flows_completed");
  tel.addSampler("fluid/aggregate_goodput_bps", [this] { return total_rate_bps_; });
  tel_init_ = true;
}

}  // namespace scidmz::tcp
