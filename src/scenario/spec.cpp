#include "scenario/spec.hpp"

#include <cmath>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "apps/background_traffic.hpp"
#include "net/address.hpp"
#include "net/packet.hpp"

namespace scidmz::scenario {

namespace {

// --- enum names ------------------------------------------------------------

/// What toString returns for a value outside its enum's name table.
constexpr const char* kNoName = "?";

/// `names[v]`: each enum's wire names are the one table its toString holds.
template <typename E, std::size_t N>
const char* nameIn(const char* const (&names)[N], E v) {
  const auto i = static_cast<std::size_t>(v);
  return i < N ? names[i] : kNoName;
}

/// The enumerator whose toString is `name`, read off the same table.
template <typename E>
std::optional<E> fromName(std::string_view name) {
  for (int i = 0;; ++i) {
    const std::string_view known = toString(static_cast<E>(i));
    if (known == kNoName) return std::nullopt;
    if (name == known) return static_cast<E>(i);
  }
}

template <>
std::optional<net::FlowFidelity> fromName(std::string_view name) {
  return net::parseFlowFidelity(name);
}

// --- value bounds ----------------------------------------------------------

/// Inclusive bounds a value read from a document must lie in.
template <typename T>
struct Range {
  T lo;
  T hi;
};

/// Every value an integer field can hold: counts stop at 2^53, the largest
/// integer a JSON number (an IEEE double) holds exactly.
template <typename T>
constexpr Range<T> kAny{};
template <>
constexpr Range<std::uint64_t> kAny<std::uint64_t>{0, 9007199254740992ull};
template <>
constexpr Range<int> kAny<int>{-2147483647, 2147483647};
/// Any duration a spec names lies in [0, 10^6 s] (about 11.6 days), so
/// Duration::fromSeconds never overflows and the sum of a spec's durations
/// stays far inside SimTime's int64 nanoseconds (about 292 years).
constexpr Range<double> kSeconds{0.0, 1e6};
constexpr Range<std::uint64_t> kMicroseconds{0, 1'000'000'000'000};  // kSeconds in us
constexpr Range<int> kPorts{1, 65535};
/// Background traffic listens on a block of ports from its base port up.
constexpr Range<int> kBackgroundBasePorts{1, kPorts.hi - (apps::BackgroundTraffic::kPortBlock - 1)};
constexpr Range<int> kHostCount{1, kMaxNumberedHosts};
/// 68 bytes is the IPv4 minimum MTU; 65535 its largest total length.
constexpr Range<std::uint64_t> kMtuBytes{68, 65535};
static_assert(kMtuBytes.lo > net::kTcpIpHeaderBytes.byteCount(), "the MSS must be positive");

bool isDottedQuad(const std::string& text) {
  try {
    (void)net::Address::parse(text);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

// --- the dual-mode key walker ----------------------------------------------

/// kUnlessDefault keys are written only when their value differs from the
/// value-initialized default, and read only when the document has them.
enum class Presence { kAlways, kUnlessDefault };

/// One fragment's keys in both directions, as sim::Codec is for the binary
/// seam: each fragment has a single io(Io&, Fragment&) that lists its keys
/// once — name, order, presence condition, bounds. Writing appends each key
/// to a JSON object in call order; reading takes each key from a parsed
/// object and refuses a missing key, a wrong type, an unknown enum value or
/// a value out of bounds, naming the dotted key path. done() refuses any
/// key no call took, so a typo in a hand-written scenario fails loudly.
class Io {
 public:
  explicit Io(Json& out) : out_(&out) {}
  /// Reader over `in`, named `path` in errors; the root's children are
  /// named from the top ("topology.path", "workloads[0]").
  Io(const Json& in, std::string path, bool root = false)
      : in_(&in), path_(std::move(path)), root_(root) {
    if (!in.isObject()) throw SpecError("\"" + path_ + "\" must be a JSON object");
    // One bit per member marks it taken; no spec fragment has 64 keys.
    if (in.members().size() > 64) throw SpecError("\"" + path_ + "\" has too many keys");
  }

  [[nodiscard]] bool writing() const { return out_ != nullptr; }

  void field(const char* key, bool& v) {
    if (writing()) {
      out_->set(key, v);
    } else {
      v = take(key, Json::Kind::kBool, "a boolean")->asBool();
    }
  }

  void field(const char* key, std::string& v, bool (*valid)(const std::string&) = nullptr,
             const char* what = nullptr) {
    if (writing()) {
      out_->set(key, v);
      return;
    }
    v = take(key, Json::Kind::kString, "a string")->asString();
    if (valid && !valid(v)) {
      throw SpecError("\"" + path_ + "." + key + "\" must be " + what + ", got \"" + v + "\"");
    }
  }

  /// The key always holds `value`; a document holding anything else is
  /// refused.
  void constant(const char* key, const char* value) {
    if (writing()) {
      out_->set(key, value);
      return;
    }
    const std::string& got = take(key, Json::Kind::kString, "a string")->asString();
    if (got != value) {
      throw SpecError("unknown value \"" + got + "\" for \"" + path_ + "." + key +
                      "\" (expected \"" + value + "\")");
    }
  }

  void field(const char* key, double& v, Range<double> bounds) {
    if (writing()) {
      out_->set(key, v);
    } else {
      v = take(key, Json::Kind::kNumber, "a number")->asNumber();
      checkBounds(key, v, bounds);
    }
  }

  /// An integer member: a JSON number that is whole and fits T (kAny<T>)
  /// — else a type error — and then lies in `bounds`.
  template <typename T>
    requires std::is_same_v<T, int> || std::is_same_v<T, std::uint64_t>
  void field(const char* key, T& v, Range<T> bounds = kAny<T>,
             Presence presence = Presence::kAlways) {
    if (writing()) {
      if (presence == Presence::kAlways || v != 0) out_->set(key, v);
      return;
    }
    const Json* j = take(key, Json::Kind::kNumber, "a number", presence);
    if (!j) return;
    const double d = j->asNumber();
    if (d != std::floor(d) || d < static_cast<double>(kAny<T>.lo) ||
        d > static_cast<double>(kAny<T>.hi)) {
      throw typeError(key, std::is_signed_v<T> ? "an integer" : "a non-negative integer");
    }
    v = static_cast<T>(d);
    checkBounds(key, v, bounds);
  }

  template <typename E>
    requires std::is_enum_v<E>
  void field(const char* key, E& v, Presence presence = Presence::kAlways) {
    if (writing()) {
      if (presence == Presence::kAlways || v != E{}) out_->set(key, std::string(toString(v)));
      return;
    }
    const Json* j = take(key, Json::Kind::kString, "a string", presence);
    if (!j) return;
    const auto parsed = fromName<E>(j->asString());
    if (!parsed) {
      throw SpecError("unknown value \"" + j->asString() + "\" for \"" + path_ + "." + key + "\"");
    }
    v = *parsed;
  }

  /// A nested fragment, through its own io().
  template <typename T>
  void object(const char* key, T& v);
  /// A nested fragment present only when engaged (written) or given (read).
  template <typename T>
  void object(const char* key, std::optional<T>& v) {
    if (writing() ? !v.has_value() : !in_->contains(key)) return;
    if (!v) v.emplace();
    object(key, *v);
  }
  /// An array of fragments; reading refuses fewer than `minItems`.
  template <typename T>
  void array(const char* key, std::vector<T>& v, std::size_t minItems = 0);

  /// Reading: refuse any key no call took.
  void done() const {
    if (writing()) return;
    const auto& members = in_->members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!(taken_ >> i & 1)) {
        throw SpecError("unknown key \"" + members[i].first + "\" in \"" + path_ + "\"");
      }
    }
  }

 private:
  /// The member `key` of the required `kind`, marked taken; null only for
  /// an absent kUnlessDefault key.
  const Json* take(const char* key, Json::Kind kind, const char* what,
                   Presence presence = Presence::kAlways) {
    const auto& members = in_->members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i].first != key) continue;
      taken_ |= std::uint64_t{1} << i;
      if (members[i].second.kind() != kind) throw typeError(key, what);
      return &members[i].second;
    }
    if (presence == Presence::kUnlessDefault) return nullptr;
    throw SpecError("missing key \"" + std::string(key) + "\" in \"" + path_ + "\"");
  }

  std::string childPath(const char* key) const { return root_ ? key : path_ + "." + key; }

  template <typename T>
  void checkBounds(const char* key, T v, Range<T> bounds) const {
    if (v >= bounds.lo && v <= bounds.hi) return;
    std::string message = "\"" + path_ + "." + key + "\" must be between ";
    appendJsonNumber(message, static_cast<double>(bounds.lo));
    message += " and ";
    appendJsonNumber(message, static_cast<double>(bounds.hi));
    message += ", got ";
    appendJsonNumber(message, static_cast<double>(v));
    throw SpecError(message);
  }

  SpecError typeError(const char* key, const char* what) const {
    return SpecError("key \"" + std::string(key) + "\" in \"" + path_ + "\" must be " + what);
  }

  Json* out_ = nullptr;
  const Json* in_ = nullptr;
  std::string path_;
  bool root_ = false;
  std::uint64_t taken_ = 0;  ///< bit i: member i was taken
};

// --- fragments -------------------------------------------------------------

void io(Io& io, LinkSpec& l) {
  io.field("rate_mbps", l.rateMbps, {1, 1'000'000});  // up to 1 Tbps
  io.field("delay_us", l.delayUs, kMicroseconds);
  io.field("mtu_bytes", l.mtuBytes, kMtuBytes);
}

void io(Io& io, HostSpec& h) {
  io.field("name", h.name);
  io.field("ip", h.ip, isDottedQuad, "a dotted quad");
}

void io(Io& io, TcpSpec& t) {
  io.field("cc", t.cc);
  io.field("buf_bytes", t.bufBytes);
  io.field("pacing", t.pacing);
}

void io(Io& io, LossSpec& l) {
  io.field("segment", l.segment, {0, 1});
  io.field("direction", l.direction, {0, 1});
  io.field("kind", l.kind);
  if (l.kind == LossKind::kRandom) {
    io.field("rate", l.rate, {0.0, 1.0});
    io.field("rng_fork", l.rngFork);
  } else {
    io.field("period", l.period, {1, kAny<std::uint64_t>.hi});
  }
}

void io(Io& io, PathTopology& p) {
  io.object("src", p.src);
  io.object("dst", p.dst);
  io.field("middlebox", p.middlebox);
  if (p.middlebox != Middlebox::kNone) io.field("mid_name", p.midName);
  io.object("link", p.link);
  io.object("link2", p.link2);
  if (p.middlebox == Middlebox::kSwitch) {
    io.field("switch_profile", p.switchProfile);
    io.field("egress_buffer_bytes", p.egressBufferBytes);
    io.field("acl_permit_all_default_deny", p.aclPermitAllDefaultDeny);
  }
  if (p.middlebox == Middlebox::kFirewall) {
    io.field("firewall_seq_checking", p.firewallSeqChecking);
    io.field("ids_vetting_packets", p.idsVettingPackets);
  }
  io.array("losses", p.losses);
}

void io(Io& io, FaninTopology& f) {
  io.field("senders", f.senders, kHostCount);
  io.field("egress_buffer_bytes", f.egressBufferBytes);
  io.object("egress_link", f.egressLink);
  io.object("sender_link", f.senderLink);
}

void io(Io& io, EnterpriseEdgeTopology& e) {
  io.field("pairs", e.pairs, kHostCount);
  io.object("core_link", e.coreLink);
  io.object("edge_link", e.edgeLink);
}

void io(Io& io, SiteTopology& s) {
  io.field("design", s.design);
  // The site plan numbers DTNs from 10.10.1.10 up to perfSONAR's .250, and
  // compute nodes from 10.10.2.1 up to .254.
  io.field("dtn_count", s.dtnCount, {1, 240});
  io.field("compute_node_count", s.computeNodeCount, {0, 254});
  io.object("wan", s.wan);
  io.field("untuned_hosts", s.untunedHosts);
  io.field("remote_storage_read_mbps", s.remoteStorageReadMbps);
  io.field("remote_storage_per_stream_cap_mbps", s.remoteStoragePerStreamCapMbps);
}

void io(Io& io, UsecaseTopology& u) {
  io.field("which", u.which);
  if (u.which == UsecaseKind::kColorado) io.field("physics_hosts", u.physicsHosts, kHostCount);
  if (u.which != UsecaseKind::kPennStateSeries) io.field("vendor_fix", u.vendorFix);
}

void io(Io& io, RingTopology& r) {
  // Site i's hosts are 10.i.(j / 250).(j % 250 + 1).
  io.field("sites", r.sites, {2, 250});
  io.field("hosts_per_site", r.hostsPerSite, {1, 250 * 250});
  io.array("wan", r.wan, 1);
  io.object("lan", r.lan);
}

void io(Io& io, TopologySpec& t) {
  io.field("kind", t.kind);
  const char* key = toString(t.kind);  // each kind's fragment sits under its name
  switch (t.kind) {
    case TopologyKind::kPath: io.object(key, t.path); break;
    case TopologyKind::kFanin: io.object(key, t.fanin); break;
    case TopologyKind::kEnterpriseEdge: io.object(key, t.edge); break;
    case TopologyKind::kSite: io.object(key, t.site); break;
    case TopologyKind::kUsecase: io.object(key, t.usecase); break;
    case TopologyKind::kRing: io.object(key, t.ring); break;
  }
}

void io(Io& io, AnalysisSpec& a) {
  io.field("validate", a.validate);
  io.field("assess_path", a.assessPath);
  io.field("window_scaling_broken", a.windowScalingBroken);
}

/// Each kind's keys, in its order: one global sequence, each key guarded by
/// the kinds that carry it (only dtn_transfer puts `port` after `bytes`).
void io(Io& io, WorkloadSpec& w) {
  using enum WorkloadKind;
  io.field("kind", w.kind);
  io.field("label", w.label);
  const auto is = [kind = w.kind](auto... kinds) { return ((kind == kinds) || ...); };
  const auto port = [&] {
    if (is(kBackground)) {
      io.field("base_port", w.port, kBackgroundBasePorts);
    } else {
      io.field(is(kConvergingFlows) ? "base_port" : "port", w.port, kPorts);
    }
  };
  if (is(kSteadyFlow, kConvergingFlows, kTimedFlow, kParallelTransfer)) io.object("tcp", w.tcp);
  if (is(kDtnTransfer)) io.field("file", w.file);
  if (is(kCampaign)) {
    io.field("src_cluster", w.srcCluster);
    io.field("dst_cluster", w.dstCluster);
    io.field("files", w.files, {0, kAny<int>.hi});
    io.field("file_size_bytes", w.fileSizeBytes);
    io.field("file_prefix", w.filePrefix);
    io.field("file_suffix", w.fileSuffix);
  }
  if (is(kRoce)) io.field("rate_gbps", w.rateGbps, {1, 1000});
  // Mean gap 1 / flows_per_second between 1 us and the longest duration.
  if (is(kBackground)) io.field("flows_per_second", w.flowsPerSecond, {1e-6, 1e6});
  if (!is(kDtnTransfer, kCampaign, kRoce)) port();
  if (is(kParallelTransfer, kDtnTransfer, kRoce)) io.field("bytes", w.bytes);
  if (is(kDtnTransfer)) port();
  if (is(kParallelTransfer, kTimedFlow)) io.field("streams", w.streams, kPorts);  // one port each
  if (is(kSteadyFlow, kConvergingFlows)) {
    io.field("warmup_s", w.warmupS, kSeconds);
    io.field("window_s", w.windowS, kSeconds);
  }
  if (is(kTimedFlow, kProbe, kBackground)) io.field("run_s", w.runS, kSeconds);
  if (is(kBackground)) io.field("drain_s", w.drainS, kSeconds);
  if (is(kParallelTransfer, kDtnTransfer, kCampaign, kRoce)) {
    io.field("timeout_s", w.timeoutS, kSeconds);
  }
  if (is(kBackground)) io.field("rng_fork", w.rngFork);
  if (workloadHasFidelity(w.kind)) io.field("fidelity", w.fidelity, Presence::kUnlessDefault);
  if (is(kConvergingFlows)) {
    io.field("fluid_flows", w.fluidFlows, {0, kMaxNumberedHosts}, Presence::kUnlessDefault);
  }
}

void io(Io& io, ScenarioSpec& s) {
  io.constant("schema", kScenarioSchema);
  io.field("name", s.name);
  io.field("seed", s.seed);
  io.field("telemetry", s.telemetry);
  io.field("domains", s.domains, {0, kAny<int>.hi}, Presence::kUnlessDefault);
  io.field("lookahead_us", s.lookaheadUs, kMicroseconds, Presence::kUnlessDefault);
  io.object("topology", s.topology);
  io.object("analysis", s.analysis);
  io.array("workloads", s.workloads);
  if (s.topology.kind == TopologyKind::kUsecase && !s.workloads.empty()) {
    throw SpecError("\"workloads\" must be empty for a usecase topology (\"" + s.name +
                    "\"): the use case drives its own simulation");
  }
  for (std::size_t i = 0; i < s.workloads.size(); ++i) {
    const WorkloadSpec& w = s.workloads[i];
    // A timed_flow's streams take one port each from port up; a fan-in's
    // converging flows one per sender from base_port up.
    if (w.kind == WorkloadKind::kTimedFlow) {
      checkPortBlock(i, "port", w.port, static_cast<std::size_t>(w.streams));
    }
    if (w.kind == WorkloadKind::kConvergingFlows && s.topology.kind == TopologyKind::kFanin) {
      checkPortBlock(i, "base_port", w.port, static_cast<std::size_t>(s.topology.fanin.senders));
    }
  }
}

// Defined after the fragments so the io() call below finds them all.
template <typename T>
void Io::object(const char* key, T& v) {
  if (writing()) {
    Json j = Json::object();
    Io child(j);
    io(child, v);
    out_->set(key, std::move(j));
    return;
  }
  Io child(*take(key, Json::Kind::kObject, "an object"), childPath(key));
  io(child, v);
  child.done();
}

template <typename T>
void Io::array(const char* key, std::vector<T>& v, std::size_t minItems) {
  if (writing()) {
    Json items = Json::array();
    for (auto& item : v) {
      Io child(items.push(Json::object()));
      io(child, item);
    }
    out_->set(key, std::move(items));
    return;
  }
  const Json& items = *take(key, Json::Kind::kArray, "an array");
  if (items.size() < minItems) {
    throw SpecError("\"" + childPath(key) + "\" must be an array of " + std::to_string(minItems) +
                    " or more items, got " + std::to_string(items.size()));
  }
  v.clear();  // the document's items replace the fragment's defaults
  for (std::size_t i = 0; i < items.size(); ++i) {
    Io child(items.at(i), childPath(key) + "[" + std::to_string(i) + "]");
    io(child, v.emplace_back());
    child.done();
  }
}

}  // namespace

// --- ScenarioSpec ----------------------------------------------------------

Json ScenarioSpec::toJson() const {
  Json doc = Json::object();
  Io out(doc);
  io(out, const_cast<ScenarioSpec&>(*this));  // a writing Io only reads the spec
  return doc;
}

ScenarioSpec ScenarioSpec::fromJson(const Json& doc) {
  Io in(doc, "scenario", /*root=*/true);
  ScenarioSpec spec;
  io(in, spec);
  in.done();
  return spec;
}

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  return fromJson(Json::parse(text));
}

const char* toString(LossKind v) { return nameIn({"random", "periodic"}, v); }
const char* toString(Middlebox v) { return nameIn({"none", "router", "switch", "firewall"}, v); }
const char* toString(SwitchProfileKind v) { return nameIn({"default", "science_dmz"}, v); }

const char* toString(SiteDesign v) {
  return nameIn({"general_purpose", "simple_dmz", "supercomputer", "bigdata"}, v);
}

const char* toString(UsecaseKind v) {
  return nameIn({"colorado", "pennstate_inbound", "pennstate_outbound", "pennstate_series", "noaa",
                 "nersc_olcf"},
                v);
}

const char* toString(TopologyKind v) {
  return nameIn({"path", "fanin", "enterprise_edge", "site", "usecase", "ring"}, v);
}

const char* toString(WorkloadKind v) {
  return nameIn({"steady_flow", "converging_flows", "timed_flow", "parallel_transfer",
                 "dtn_transfer", "campaign", "probe", "roce", "background"},
                v);
}

void checkPortBlock(std::size_t workload, const char* key, int basePort, std::size_t ports) {
  const long long highest = 65536 - static_cast<long long>(ports);
  if (ports == 0 || basePort <= highest) return;
  throw SpecError("\"workloads[" + std::to_string(workload) + "]." + key + "\" must be at most " +
                  std::to_string(highest) + " for " + std::to_string(ports) + " ports, got " +
                  std::to_string(basePort));
}

bool workloadHasFidelity(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kSteadyFlow:
    case WorkloadKind::kConvergingFlows:
    case WorkloadKind::kTimedFlow:
    case WorkloadKind::kParallelTransfer:
    case WorkloadKind::kProbe:
    case WorkloadKind::kBackground:
      return true;
    case WorkloadKind::kDtnTransfer:
    case WorkloadKind::kCampaign:
    case WorkloadKind::kRoce:
      return false;
  }
  return false;
}

}  // namespace scidmz::scenario
