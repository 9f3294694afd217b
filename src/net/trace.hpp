// Bridging helpers between net types and the telemetry layer's POD views.
#pragma once

#include "net/address.hpp"
#include "net/packet.hpp"
#include "telemetry/flight_recorder.hpp"

namespace scidmz::net {

/// Flatten a 5-tuple for the flight recorder (IANA protocol numbers).
[[nodiscard]] inline telemetry::FlowRef toFlowRef(const FlowKey& key) {
  telemetry::FlowRef ref;
  ref.src = key.src.value();
  ref.dst = key.dst.value();
  ref.srcPort = key.srcPort;
  ref.dstPort = key.dstPort;
  ref.proto = key.proto == Protocol::kTcp ? 6 : 17;
  return ref;
}

/// Common fields of a packet-level trace event; caller fills kind/point/aux.
[[nodiscard]] inline telemetry::FlightEvent makeFlightEvent(sim::SimTime at,
                                                            const Packet& packet) {
  telemetry::FlightEvent ev;
  ev.at = at;
  ev.packetId = packet.id;
  ev.flow = toFlowRef(packet.flow);
  ev.bytes = static_cast<std::uint32_t>(packet.wireSize().byteCount());
  return ev;
}

/// Record one packet-level trace event of `kind` at emit point `point`.
inline void recordPacket(telemetry::FlightRecorder& recorder, sim::SimTime at,
                         const Packet& packet, telemetry::FlightEventKind kind,
                         std::uint32_t point, std::uint64_t aux2 = 0) {
  telemetry::FlightEvent ev = makeFlightEvent(at, packet);
  ev.kind = kind;
  ev.point = point;
  ev.aux2 = aux2;
  recorder.record(ev);
}

}  // namespace scidmz::net
