#include "net/link.hpp"

#include <string>

#include "net/codec.hpp"
#include "net/device.hpp"
#include "net/trace.hpp"

namespace scidmz::net {

Link::Link(Context& ctx, LinkParams params, Interface& endA, Interface& endB)
    : ctx_(ctx), params_(params), endA_(endA), endB_(endB) {
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
  // Direction state belongs to the sending end's domain: its owner's ctx is
  // ctx_ in ordinary runs and the sender domain's ctx under sharding.
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
  // end's domain; sctx is ctx_ whenever the topology is unsharded.
  Context& sctx = end(d).owner().ctx();
  auto& tel = sctx.telemetry();
  const bool traced = tel.enabled();
  if (traced && !tel_[d].init) initTelemetry(d);
  if (loss_[d] && loss_[d]->shouldDrop(*packet)) {
    ++dir.lost;
    if (traced) {
      ++*tel_[d].lost;
      telemetry::FlightEvent ev = makeFlightEvent(sctx.now(), *packet);
      ev.kind = telemetry::FlightEventKind::kLinkLoss;
      ev.point = tel_[d].point;
      tel.recorder().record(ev);
    }
    return;
  }
  ++dir.delivered;
  dir.bytesDelivered += packet->wireSize();
  if (traced) {
    ++*tel_[d].delivered;
    telemetry::FlightEvent ev = makeFlightEvent(sctx.now(), *packet);
    ev.kind = telemetry::FlightEventKind::kDeliver;
    ev.point = tel_[d].point;
    tel.recorder().record(ev);
  }
  const sim::SimTime at = sctx.now() + params_.delay;
  Outbox& out = outbox_[d];
  if (out.link != nullptr) {
    // Boundary channel: stage a by-value copy; this pool slot recycles here.
    out.pending.push_back(Outbox::Staged{
        at, sim::ShardedSimulator::boundarySeq(out.channel, out.sent++), *packet});
    return;
  }
  enqueueInFlight(d, at, sctx.sim().reserveSeq(), std::move(packet));
}

void Link::routeThroughChannels(sim::ShardedSimulator& sharded, int domainA, int domainB) {
  for (int d = 0; d < 2; ++d) {
    outbox_[d].link = this;
    outbox_[d].dir = d;
    outbox_[d].channel = sharded.addChannel(d == 0 ? domainB : domainA, params_.delay, outbox_[d]);
  }
}

void Link::Outbox::drain() {
  Context& dctx = link->peer(dir).owner().ctx();
  for (Staged& m : pending) {
    link->enqueueInFlight(dir, m.at, m.seq, dctx.pool().acquire(std::move(m.packet)));
  }
  pending.clear();
}

void Link::enqueueInFlight(int d, sim::SimTime at, std::uint64_t seq, PacketRef packet) {
  line_[d].push(InFlight{at, seq, std::move(packet)});
  if (line_[d].size() == 1) armHead(d);
}

void Link::armHead(int d) {
  const InFlight& head = line_[d].front();
  peer(d).owner().ctx().sim().restoreSchedule(head.at, head.seq, [this, d] { deliverHead(d); });
}

void Link::deliverHead(int d) {
  PacketRef packet = std::move(line_[d].pop().packet);
  if (!line_[d].empty()) armHead(d);
  Interface& dst = peer(d);
  dst.owner().receive(std::move(packet), dst);
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

    // The delay line, head first, each record with its own key.
    std::uint64_t n = line_[d].size();
    c.vu64(n);
    if (c.writing()) {
      line_[d].forEach([&](InFlight& rec) {
        sim::codecTime(c, rec.at);
        c.vu64(rec.seq);
        codecPacket(c, *rec.packet);
      });
    } else {
      line_[d].clear();
      for (std::uint64_t i = 0; i < n && c.ok(); ++i) {
        InFlight rec{sim::SimTime::zero(), 0, ctx_.pool().acquire()};
        sim::codecTime(c, rec.at);
        c.vu64(rec.seq);
        codecPacket(c, *rec.packet);
        // serialize() only ever writes a line sorted by (at, seq).
        if (!line_[d].empty() && (rec.at < line_[d].back().at || rec.seq <= line_[d].back().seq)) {
          c.reader().markFailed();
        }
        line_[d].push(std::move(rec));
      }
      if (!c.ok()) return claimed;
      if (!line_[d].empty()) armHead(d);
    }
    if (n != 0) ++claimed;
  }
  return claimed;
}

}  // namespace scidmz::net
