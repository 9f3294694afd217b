#include "telemetry/flight_recorder.hpp"

#include <cstdio>
#include <istream>
#include <iterator>
#include <ostream>
#include <tuple>

#include "sim/json_escape.hpp"

namespace scidmz::telemetry {

namespace {

constexpr const char* kFrbinMagic = "scidmz.frbin.v1";

/// A trace repeats a handful of 5-tuples across millions of events, so
/// flows are interned the same way emit points are: the first sighting of
/// a tuple carries it in full (its ref equals the table size so far) and
/// every later event pays one varint. Both directions grow the table in
/// stream order, so no separate dictionary section is needed.
struct FlowInterner {
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint16_t, std::uint16_t, std::uint8_t>,
           std::uint32_t>
      index;
  std::vector<FlowRef> flows;
};

void codecFlowTuple(sim::Codec& c, FlowRef& f) {
  c.vu32(f.src);
  c.vu32(f.dst);
  std::uint32_t sport = f.srcPort;
  std::uint32_t dport = f.dstPort;
  c.vu32(sport);
  c.vu32(dport);
  if (!c.writing()) {
    f.srcPort = static_cast<std::uint16_t>(sport);
    f.dstPort = static_cast<std::uint16_t>(dport);
  }
  c.u8(f.proto);
}

void codecFlowRef(sim::Codec& c, FlowRef& f, FlowInterner& interner) {
  if (c.writing()) {
    const auto key = std::make_tuple(f.src, f.dst, f.srcPort, f.dstPort, f.proto);
    const auto it = interner.index.find(key);
    std::uint32_t ref = it != interner.index.end()
                            ? it->second
                            : static_cast<std::uint32_t>(interner.flows.size());
    c.vu32(ref);
    if (it == interner.index.end()) {
      interner.index.emplace(key, ref);
      interner.flows.push_back(f);
      codecFlowTuple(c, f);
    }
    return;
  }
  std::uint32_t ref = 0;
  c.vu32(ref);
  if (ref == interner.flows.size()) {
    codecFlowTuple(c, f);
    interner.flows.push_back(f);
  } else if (ref < interner.flows.size()) {
    f = interner.flows[ref];
  } else {
    c.reader().markFailed();
  }
}

/// The fewest bits codecEvent writes: eight one-byte varints and a byte.
constexpr std::uint64_t kEventMinBits = 64;

/// One event through the codec. Used by both the snapshot overlay and the
/// frbin export; `prevNs` delta-encodes the (chronological) timestamps and
/// `interner` compresses the repeated 5-tuples.
void codecEvent(sim::Codec& c, FlightEvent& e, std::int64_t& prevNs, FlowInterner& interner) {
  std::int64_t deltaNs = e.at.ns() - prevNs;
  c.vi64(deltaNs);
  if (!c.writing()) e.at = sim::SimTime::fromNs(prevNs + deltaNs);
  prevNs = e.at.ns();
  c.vu64(e.packetId);
  c.vu64(e.aux);
  c.vu64(e.aux2);
  codecFlowRef(c, e.flow, interner);
  c.vu32(e.bytes);
  c.vu32(e.point);
  std::uint8_t kind = static_cast<std::uint8_t>(e.kind);
  c.u8(kind);
  if (!c.writing()) e.kind = static_cast<FlightEventKind>(kind);
}

void codecPoints(sim::Codec& c, std::vector<std::string>& points,
                 std::map<std::string, std::uint32_t>& index) {
  std::uint64_t n = points.size();
  c.count(n, 8);  // a name is at least its one-byte length
  if (c.writing()) {
    for (std::string& p : points) c.str(p);
  } else {
    points.clear();
    index.clear();
    points.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string name;
      c.str(name);
      index.emplace(name, static_cast<std::uint32_t>(points.size()));
      points.push_back(std::move(name));
    }
  }
}

void appendIp(std::string& out, std::uint32_t ip) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (ip >> 24) & 0xff, (ip >> 16) & 0xff,
                (ip >> 8) & 0xff, ip & 0xff);
  out += buf;
}

std::string_view protoName(std::uint8_t proto) {
  switch (proto) {
    case 6: return "tcp";
    case 17: return "udp";
    default: return "other";
  }
}

}  // namespace

std::string_view toString(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kEnqueue: return "enqueue";
    case FlightEventKind::kDequeue: return "dequeue";
    case FlightEventKind::kDrop: return "drop";
    case FlightEventKind::kLinkLoss: return "link_loss";
    case FlightEventKind::kRetransmit: return "retransmit";
    case FlightEventKind::kDeliver: return "deliver";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity ? capacity : 1) {
  ring_.reserve(capacity_ < 4096 ? capacity_ : 4096);
}

std::uint32_t FlightRecorder::internPoint(const std::string& name) {
  const auto it = point_index_.find(name);
  if (it != point_index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(points_.size());
  points_.push_back(name);
  point_index_.emplace(name, id);
  return id;
}

const std::string& FlightRecorder::pointName(std::uint32_t id) const {
  static const std::string kUnknown = "?";
  return id < points_.size() ? points_[id] : kUnknown;
}

void FlightRecorder::record(const FlightEvent& event) {
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  ring_[head_] = event;  // overwrite the oldest
  head_ = (head_ + 1) % capacity_;
}

void FlightRecorder::setCapacity(std::size_t capacity) {
  // Only honored before any event is recorded; resizing a live ring would
  // scramble chronological order for no real use case.
  if (total_ == 0) capacity_ = capacity ? capacity : 1;
}

void FlightRecorder::clear() {
  ring_.clear();
  head_ = 0;
  total_ = 0;
}

void FlightRecorder::exportJsonl(std::ostream& out) const {
  std::string line;
  forEach([&](const FlightEvent& e) {
    line.clear();
    char buf[96];
    std::snprintf(buf, sizeof buf, "{\"t_ns\":%lld,\"ev\":\"",
                  static_cast<long long>(e.at.ns()));
    line += buf;
    line += toString(e.kind);
    line += "\",\"point\":\"";
    sim::appendJsonEscaped(line, pointName(e.point));
    line += "\",\"pkt\":";
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(e.packetId));
    line += buf;
    line += ",\"src\":\"";
    appendIp(line, e.flow.src);
    line += "\",\"dst\":\"";
    appendIp(line, e.flow.dst);
    std::snprintf(buf, sizeof buf, "\",\"sport\":%u,\"dport\":%u,\"proto\":\"", e.flow.srcPort,
                  e.flow.dstPort);
    line += buf;
    line += protoName(e.flow.proto);
    std::snprintf(buf, sizeof buf, "\",\"bytes\":%u,\"seq\":%llu,\"depth\":%llu}", e.bytes,
                  static_cast<unsigned long long>(e.aux),
                  static_cast<unsigned long long>(e.aux2));
    line += buf;
    out << line << '\n';
  });
}

void FlightRecorder::serialize(sim::Codec& c) {
  c.size(capacity_);
  std::uint64_t retained = ring_.size();
  c.count(retained, kEventMinBits);
  if (!c.writing()) {
    // The ring never holds more than its capacity, which is never 0.
    if (capacity_ == 0 || retained > capacity_) {
      c.reader().markFailed();
      retained = 0;
    }
    ring_.resize(static_cast<std::size_t>(retained));
  }
  // Ring order (not chronological order): head_ comes across verbatim, so
  // the restored ring overwrites slots in exactly the original sequence.
  std::int64_t prevNs = 0;
  FlowInterner interner;
  for (FlightEvent& e : ring_) codecEvent(c, e, prevNs, interner);
  c.size(head_);
  if (!c.writing() && head_ >= capacity_) {  // the next overwrite lands at ring_[head_]
    c.reader().markFailed();
    head_ = 0;
  }
  c.vu64(total_);
  codecPoints(c, points_, point_index_);
}

void FlightRecorder::exportBinary(std::ostream& out) const {
  sim::BitWriter w;
  sim::writeMagic(w, kFrbinMagic);
  sim::Codec c(w);
  {
    const auto cookie = w.beginSection("PTS ");
    auto points = points_;  // codec wants mutable refs; export is const
    std::map<std::string, std::uint32_t> index;
    codecPoints(c, points, index);
    w.endSection(cookie);
  }
  {
    const auto cookie = w.beginSection("EVTS");
    std::uint64_t n = ring_.size();
    c.vu64(n);
    std::int64_t prevNs = 0;
    FlowInterner interner;
    forEach([&](const FlightEvent& e) {
      FlightEvent copy = e;  // chronological order, delta-friendly
      codecEvent(c, copy, prevNs, interner);
    });
    w.endSection(cookie);
  }
  const auto bytes = w.take();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

bool FlightRecorder::importBinary(std::istream& in) {
  clear();
  std::vector<std::uint8_t> blob((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  sim::BitReader r(blob.data(), blob.size());
  if (!sim::readMagic(r, kFrbinMagic)) return false;
  sim::Codec c(r);
  if (r.enterSection("PTS ") == 0 && r.fail()) return false;
  codecPoints(c, points_, point_index_);
  if (r.enterSection("EVTS") == 0 && r.fail()) return false;
  std::uint64_t n = 0;
  c.count(n, kEventMinBits);
  if (capacity_ < static_cast<std::size_t>(n)) capacity_ = static_cast<std::size_t>(n);
  std::int64_t prevNs = 0;
  FlowInterner interner;
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    FlightEvent e;
    codecEvent(c, e, prevNs, interner);
    record(e);
  }
  if (r.fail() || !r.atEnd()) {  // refuse undecoded or trailing bytes too
    clear();
    return false;
  }
  return true;
}

}  // namespace scidmz::telemetry
