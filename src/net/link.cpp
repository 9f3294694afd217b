#include "net/link.hpp"

#include <memory>
#include <string>
#include <utility>

#include "net/codec.hpp"
#include "net/device.hpp"
#include "net/trace.hpp"

namespace scidmz::net {

Link::Link(LinkParams params, Interface& endA, Interface& endB)
    : params_(params),
      endA_(endA),
      endB_(endB),
      line_{{endB.owner().ctx(), endB, "net.link"}, {endA.owner().ctx(), endA, "net.link"}} {
  // Deliveries are keyed at send time + delay, never in the past.
  if (params_.delay < sim::Duration::zero()) params_.delay = sim::Duration::zero();
  endA_.attachLink(*this, 0);
  endB_.attachLink(*this, 1);
}

void Link::setLossModel(int fromEnd, std::unique_ptr<LossModel> model) {
  loss_[fromEnd & 1] = std::move(model);
}

void Link::repair() {
  loss_[0].reset();
  loss_[1].reset();
}

void Link::initTelemetry(int dir) {
  // Direction state belongs to the sending end's domain (the one scenario
  // Context in ordinary runs, the sender domain's under sharding).
  auto& tel = end(dir).owner().ctx().telemetry();
  const std::string name =
      end(dir).owner().name() + "->" + peer(dir).owner().name();
  DirTelemetry& t = tel_[dir & 1];
  t.point = tel.recorder().internPoint("link:" + name);
  t.lost = &tel.metrics().counter("link/" + name + "/lost");
  t.delivered = &tel.metrics().counter("link/" + name + "/delivered");
  t.init = true;
}

void Link::transmitComplete(int fromEnd, PacketRef packet) {
  const int d = fromEnd & 1;
  auto& dir = stats_[d];
  // Per-direction state (stats, loss, telemetry) lives with the sending
  // end's domain; without boundary channels both ends share it.
  Context& sctx = end(d).owner().ctx();
  auto& tel = sctx.telemetry();
  const bool traced = tel.enabled();
  if (traced && !tel_[d].init) initTelemetry(d);
  if (loss_[d] && loss_[d]->shouldDrop(*packet)) {
    ++dir.lost;
    if (traced) {
      ++*tel_[d].lost;
      recordPacket(tel.recorder(), sctx.now(), *packet,
                   telemetry::FlightEventKind::kLinkLoss, tel_[d].point);
    }
    return;
  }
  ++dir.delivered;
  dir.bytesDelivered += packet->wireSize();
  if (traced) {
    ++*tel_[d].delivered;
    recordPacket(tel.recorder(), sctx.now(), *packet,
                 telemetry::FlightEventKind::kDeliver, tel_[d].point);
  }
  const sim::SimTime at = sctx.now() + params_.delay;
  if (Outbox* out = outbox_[d].get()) {
    const std::uint64_t seq = sim::ShardedSimulator::boundarySeq(out->channel, out->sent++);
    if (out->cut) {
      out->pending.push(DelayRecord{at, seq, std::move(packet)});
    } else {
      line_[d].push(at, seq, std::move(packet));
    }
    return;
  }
  line_[d].push(at, std::move(packet));
}

void Link::routeThroughChannels(sim::ShardedSimulator& sharded, int domainA, int domainB) {
  for (int d = 0; d < 2; ++d) {
    Outbox& out = *(outbox_[d] = std::make_unique<Outbox>());
    out.link = this;
    out.dir = d;
    out.cut = domainA != domainB;
    out.channel = sharded.addChannel(d == 0 ? domainB : domainA, params_.delay,
                                     out.cut ? &out : nullptr);
    if (out.cut) {
      Context& sctx = end(d).owner().ctx();
      sctx.pool().shareAcrossDomains(sctx.sim());
    }
  }
}

void Link::Outbox::drain() {
  while (!ready.empty()) {
    DelayRecord m = ready.pop();
    link->line_[dir].push(m.at, m.seq, std::move(m.packet));
  }
}

std::uint64_t Link::serialize(sim::Codec& c) {
  std::uint64_t claimed = 0;
  for (int d = 0; d < 2; ++d) {
    c.vu64(stats_[d].delivered);
    c.vu64(stats_[d].lost);
    sim::codecSize(c, stats_[d].bytesDelivered);
    sim::codecRate(c, fluid_demand_[d]);

    // Loss-model *state* only; parameters come from scenario rebuild. A
    // snapshot taken after repair() clears the rebuilt model; a snapshot
    // holding state for a model the rebuild lacks is refused.
    bool hasLoss = loss_[d] != nullptr;
    c.b(hasLoss);
    if (hasLoss) {
      if (!c.writing() && !loss_[d]) {
        c.reader().markFailed();
        return claimed;
      }
      loss_[d]->serializeState(c);
    } else if (!c.writing()) {
      loss_[d].reset();
    }

    claimed += line_[d].serialize(c);
  }
  return claimed;
}

}  // namespace scidmz::net
