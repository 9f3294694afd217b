#include "net/firewall.hpp"

#include <algorithm>
#include <tuple>
#include <vector>

#include "net/codec.hpp"
#include "net/trace.hpp"

namespace scidmz::net {

namespace {

[[nodiscard]] auto flowKeyTuple(const FlowKey& k) {
  return std::make_tuple(k.src.value(), k.dst.value(), k.srcPort, k.dstPort,
                         static_cast<int>(k.proto));
}

}  // namespace

void FirewallDevice::initTelemetry() {
  auto& tel = ctx_.telemetry();
  tel_point_ = tel.recorder().internPoint(name() + "/input");
  tel_drops_buffer_ = &tel.metrics().counter("firewall/" + name() + "/drops_input_buffer");
  tel_drops_policy_ = &tel.metrics().counter("firewall/" + name() + "/drops_policy");
  tel_drops_session_ = &tel.metrics().counter("firewall/" + name() + "/drops_session_table");
  tel_syns_rewritten_ = &tel.metrics().counter("firewall/" + name() + "/syns_rewritten");
  tel_inspected_ = &tel.metrics().counter("firewall/" + name() + "/inspected");
  tel_init_ = true;
  if (!tel_probe_) addProbe();
}

void FirewallDevice::addProbe() {
  ctx_.telemetry().addSampler("firewall/" + name() + "/input_buffered_bytes",
                              [this] { return static_cast<double>(buffered_.byteCount()); });
  tel_probe_ = true;
}

void FirewallDevice::receive(PacketRef packet, Interface& in) {
  notifyTap(*packet, in);
  ++stats_.rxPackets;
  stats_.rxBytes += packet->wireSize();

  auto& tel = ctx_.telemetry();
  const bool traced = tel.enabled();
  if (traced && !tel_init_) initTelemetry();

  // Vetted flows skip the inspection engines entirely (SDN bypass).
  if (bypass_.contains(packet->flow)) {
    forward(std::move(packet));
    return;
  }

  // Policy check. Denied packets are dropped before buffering.
  if (!policy_.permits(*packet)) {
    ++fw_stats_.dropsPolicy;
    ++stats_.dropsAcl;
    if (traced) {
      ++*tel_drops_policy_;
      recordPacket(tel.recorder(), ctx_.now(), *packet,
                   telemetry::FlightEventKind::kDrop, tel_point_);
    }
    return;
  }

  // Session tracking: TCP flows occupy a session slot from the first packet
  // seen (SYN or mid-flow); a full table drops new flows.
  if (packet->flow.proto == Protocol::kTcp) {
    const auto forwardKey = packet->flow;
    if (sessions_.find(forwardKey) == sessions_.end() &&
        sessions_.find(forwardKey.reversed()) == sessions_.end()) {
      if (sessions_.size() >= profile_.sessionTableSize) {
        ++fw_stats_.dropsSessionTable;
        if (traced) {
          ++*tel_drops_session_;
          recordPacket(tel.recorder(), ctx_.now(), *packet,
                       telemetry::FlightEventKind::kDrop, tel_point_);
        }
        return;
      }
      sessions_.emplace(forwardKey, ctx_.now());
      fw_stats_.peakSessions = std::max(fw_stats_.peakSessions, sessions_.size());
    }
  }

  // TCP flow sequence checking rewrites the TCP header in place in its pool
  // slot; the side effect the paper documents is stripping the RFC 1323
  // window-scale option from SYNs.
  if (profile_.tcpSequenceChecking && packet->isTcp()) {
    auto& tcp = packet->tcp();
    if (tcp.flags.syn && tcp.windowScalePresent) {
      tcp.windowScalePresent = false;
      tcp.windowScale = 0;
      ++fw_stats_.synsRewritten;
      if (traced) ++*tel_syns_rewritten_;
    }
  }

  // Shared input buffer in front of the engines.
  const auto size = packet->wireSize();
  if (buffered_ + size > profile_.inputBuffer) {
    ++fw_stats_.dropsInputBuffer;
    if (traced) {
      ++*tel_drops_buffer_;
      recordPacket(tel.recorder(), ctx_.now(), *packet,
                   telemetry::FlightEventKind::kDrop, tel_point_, buffered_.byteCount());
    }
    return;
  }
  buffered_ += size;

  // Dispatch to the flow's engine; completion = engine serialization after
  // any queued work, plus fixed inspection latency.
  const auto engineIndex = FlowKeyHash{}(packet->flow) % engines_.size();
  auto& engine = engines_[engineIndex];
  const auto start = std::max(ctx_.now(), engine.busyUntil);
  const auto done = start + profile_.engineRate.transmissionTime(size);
  engine.busyUntil = done;
  const auto releaseAt = done + profile_.inspectionDelay;
  engine.line.push(releaseAt, std::move(packet));
}

void FirewallDevice::release(PacketRef packet) {
  buffered_ -= packet->wireSize();
  ++fw_stats_.inspected;
  if (ctx_.telemetry().enabled()) {
    if (!tel_init_) initTelemetry();
    ++*tel_inspected_;
  }
  forward(std::move(packet));
}

std::uint64_t FirewallDevice::serialize(sim::Codec& c) {
  std::uint64_t claimed = Device::serialize(c);
  c.vu64(fw_stats_.inspected);
  c.vu64(fw_stats_.dropsInputBuffer);
  c.vu64(fw_stats_.dropsPolicy);
  c.vu64(fw_stats_.dropsSessionTable);
  c.vu64(fw_stats_.synsRewritten);
  c.size(fw_stats_.peakSessions);
  std::uint64_t engineCount = engines_.size();
  c.vu64(engineCount);
  if (!c.writing() && engineCount != engines_.size()) {
    c.reader().markFailed();
    return claimed;
  }
  for (Engine& e : engines_) {
    sim::codecTime(c, e.busyUntil);
    claimed += e.line.serialize(c);
  }
  sim::codecSize(c, buffered_);
  // Session and bypass tables: hash containers, written in sorted key order
  // so the snapshot bytes are independent of hash-table iteration order.
  std::uint64_t sessionCount = sessions_.size();
  c.vu64(sessionCount);
  if (c.writing()) {
    std::vector<std::pair<FlowKey, sim::SimTime>> rows(sessions_.begin(), sessions_.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return flowKeyTuple(a.first) < flowKeyTuple(b.first);
    });
    for (auto& [key, at] : rows) {
      FlowKey k = key;
      sim::SimTime t = at;
      codecFlowKey(c, k);
      sim::codecTime(c, t);
    }
  } else {
    sessions_.clear();
    for (std::uint64_t i = 0; i < sessionCount && c.ok(); ++i) {
      FlowKey k;
      sim::SimTime t = sim::SimTime::zero();
      codecFlowKey(c, k);
      sim::codecTime(c, t);
      sessions_.emplace(k, t);
    }
  }
  std::uint64_t bypassCount = bypass_.size();
  c.vu64(bypassCount);
  if (c.writing()) {
    std::vector<FlowKey> keys(bypass_.begin(), bypass_.end());
    std::sort(keys.begin(), keys.end(), [](const FlowKey& a, const FlowKey& b) {
      return flowKeyTuple(a) < flowKeyTuple(b);
    });
    for (FlowKey& k : keys) codecFlowKey(c, k);
  } else {
    bypass_.clear();
    for (std::uint64_t i = 0; i < bypassCount && c.ok(); ++i) {
      FlowKey k;
      codecFlowKey(c, k);
      bypass_.insert(k);
    }
  }
  // Runtime policy toggle (the Penn State fix flips it mid-scenario).
  c.b(profile_.tcpSequenceChecking);
  // A probe the snapshotting run registered samples from the next tick on.
  bool probe = tel_probe_;
  c.b(probe);
  if (probe && !tel_probe_) addProbe();
  return claimed;
}

}  // namespace scidmz::net
