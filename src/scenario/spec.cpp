#include "scenario/spec.hpp"

#include <cmath>
#include <cstring>
#include <utility>

namespace scidmz::scenario {

namespace {

// --- reading helpers -------------------------------------------------------

/// Tracks which keys of an object were consumed; done() rejects leftovers
/// so typos in hand-written scenario files fail loudly, naming the key.
class ObjectReader {
 public:
  ObjectReader(const Json& obj, std::string path) : obj_(obj), path_(std::move(path)) {
    if (!obj_.isObject()) throw SpecError("\"" + path_ + "\" must be a JSON object");
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool has(const char* key) const { return obj_.contains(key); }

  const Json& require(const char* key) {
    if (!obj_.contains(key)) {
      throw SpecError("missing key \"" + std::string(key) + "\" in \"" + path_ + "\"");
    }
    seen_.emplace_back(key);
    return obj_.get(key);
  }

  std::string getString(const char* key) {
    const Json& v = require(key);
    if (!v.isString()) throw typeError(key, "a string");
    return v.asString();
  }

  bool getBool(const char* key) {
    const Json& v = require(key);
    if (!v.isBool()) throw typeError(key, "a boolean");
    return v.asBool();
  }

  double getNumber(const char* key) {
    const Json& v = require(key);
    if (!v.isNumber()) throw typeError(key, "a number");
    return v.asNumber();
  }

  std::uint64_t getUint(const char* key) {
    const double v = getNumber(key);
    if (v < 0 || v != std::floor(v) || v > 9.007199254740992e15) {
      throw typeError(key, "a non-negative integer");
    }
    return static_cast<std::uint64_t>(v);
  }

  int getInt(const char* key) {
    const double v = getNumber(key);
    if (v != std::floor(v) || std::fabs(v) > 2147483647.0) {
      throw typeError(key, "an integer");
    }
    return static_cast<int>(v);
  }

  const Json& getObject(const char* key) {
    const Json& v = require(key);
    if (!v.isObject()) throw typeError(key, "an object");
    return v;
  }

  const Json& getArray(const char* key) {
    const Json& v = require(key);
    if (!v.isArray()) throw typeError(key, "an array");
    return v;
  }

  /// Reject any key that was never consumed.
  void done() const {
    for (const auto& [key, value] : obj_.members()) {
      bool known = false;
      for (const auto& s : seen_) {
        if (s == key) {
          known = true;
          break;
        }
      }
      if (!known) throw SpecError("unknown key \"" + key + "\" in \"" + path_ + "\"");
    }
  }

 private:
  SpecError typeError(const char* key, const char* what) const {
    return SpecError("key \"" + std::string(key) + "\" in \"" + path_ + "\" must be " + what);
  }

  const Json& obj_;
  std::string path_;
  std::vector<std::string> seen_;
};

template <typename Enum>
Enum parseEnum(const std::string& value, const std::string& keyPath,
               std::initializer_list<std::pair<const char*, Enum>> table) {
  for (const auto& [name, v] : table) {
    if (value == name) return v;
  }
  throw SpecError("unknown value \"" + value + "\" for \"" + keyPath + "\"");
}

// --- fragment (de)serializers ---------------------------------------------

Json linkToJson(const LinkSpec& l) {
  Json j = Json::object();
  j.set("rate_mbps", l.rateMbps);
  j.set("delay_us", l.delayUs);
  j.set("mtu_bytes", l.mtuBytes);
  return j;
}

LinkSpec linkFromJson(const Json& doc, const std::string& path) {
  ObjectReader r(doc, path);
  LinkSpec l;
  l.rateMbps = r.getUint("rate_mbps");
  l.delayUs = r.getUint("delay_us");
  l.mtuBytes = r.getUint("mtu_bytes");
  r.done();
  return l;
}

Json hostToJson(const HostSpec& h) {
  Json j = Json::object();
  j.set("name", h.name);
  j.set("ip", h.ip);
  return j;
}

HostSpec hostFromJson(const Json& doc, const std::string& path) {
  ObjectReader r(doc, path);
  HostSpec h;
  h.name = r.getString("name");
  h.ip = r.getString("ip");
  r.done();
  return h;
}

Json tcpToJson(const TcpSpec& t) {
  Json j = Json::object();
  j.set("cc", toString(t.cc));
  j.set("buf_bytes", t.bufBytes);
  j.set("pacing", t.pacing);
  return j;
}

TcpSpec tcpFromJson(const Json& doc, const std::string& path) {
  ObjectReader r(doc, path);
  TcpSpec t;
  t.cc = parseEnum<CcAlgo>(r.getString("cc"), path + ".cc",
                           {{"reno", CcAlgo::kReno},
                            {"htcp", CcAlgo::kHtcp},
                            {"cubic", CcAlgo::kCubic}});
  t.bufBytes = r.getUint("buf_bytes");
  t.pacing = r.getBool("pacing");
  r.done();
  return t;
}

Json lossToJson(const LossSpec& l) {
  Json j = Json::object();
  j.set("segment", l.segment);
  j.set("direction", l.direction);
  j.set("kind", toString(l.kind));
  if (l.kind == LossKind::kRandom) {
    j.set("rate", l.rate);
    j.set("rng_fork", l.rngFork);
  } else {
    j.set("period", l.period);
  }
  return j;
}

LossSpec lossFromJson(const Json& doc, const std::string& path) {
  ObjectReader r(doc, path);
  LossSpec l;
  l.segment = r.getInt("segment");
  l.direction = r.getInt("direction");
  l.kind = parseEnum<LossKind>(r.getString("kind"), path + ".kind",
                               {{"random", LossKind::kRandom},
                                {"periodic", LossKind::kPeriodic}});
  if (l.kind == LossKind::kRandom) {
    l.rate = r.getNumber("rate");
    l.rngFork = r.getUint("rng_fork");
  } else {
    l.period = r.getUint("period");
  }
  r.done();
  return l;
}

// --- topologies ------------------------------------------------------------

Json pathToJson(const PathTopology& p) {
  Json j = Json::object();
  j.set("src", hostToJson(p.src));
  j.set("dst", hostToJson(p.dst));
  j.set("middlebox", toString(p.middlebox));
  if (p.middlebox != Middlebox::kNone) j.set("mid_name", p.midName);
  j.set("link", linkToJson(p.link));
  if (p.link2) j.set("link2", linkToJson(*p.link2));
  if (p.middlebox == Middlebox::kSwitch) {
    j.set("switch_profile", toString(p.switchProfile));
    j.set("egress_buffer_bytes", p.egressBufferBytes);
    j.set("acl_permit_all_default_deny", p.aclPermitAllDefaultDeny);
  }
  if (p.middlebox == Middlebox::kFirewall) {
    j.set("firewall_seq_checking", p.firewallSeqChecking);
    j.set("ids_vetting_packets", p.idsVettingPackets);
  }
  Json losses = Json::array();
  for (const auto& l : p.losses) losses.push(lossToJson(l));
  j.set("losses", std::move(losses));
  return j;
}

PathTopology pathFromJson(const Json& doc, const std::string& path) {
  ObjectReader r(doc, path);
  PathTopology p;
  p.src = hostFromJson(r.getObject("src"), path + ".src");
  p.dst = hostFromJson(r.getObject("dst"), path + ".dst");
  p.middlebox = parseEnum<Middlebox>(r.getString("middlebox"), path + ".middlebox",
                                     {{"none", Middlebox::kNone},
                                      {"router", Middlebox::kRouter},
                                      {"switch", Middlebox::kSwitch},
                                      {"firewall", Middlebox::kFirewall}});
  if (p.middlebox != Middlebox::kNone) p.midName = r.getString("mid_name");
  p.link = linkFromJson(r.getObject("link"), path + ".link");
  if (r.has("link2")) p.link2 = linkFromJson(r.getObject("link2"), path + ".link2");
  if (p.middlebox == Middlebox::kSwitch) {
    p.switchProfile = parseEnum<SwitchProfileKind>(
        r.getString("switch_profile"), path + ".switch_profile",
        {{"default", SwitchProfileKind::kDefault},
         {"science_dmz", SwitchProfileKind::kScienceDmz}});
    p.egressBufferBytes = r.getUint("egress_buffer_bytes");
    p.aclPermitAllDefaultDeny = r.getBool("acl_permit_all_default_deny");
  }
  if (p.middlebox == Middlebox::kFirewall) {
    p.firewallSeqChecking = r.getBool("firewall_seq_checking");
    p.idsVettingPackets = r.getUint("ids_vetting_packets");
  }
  const Json& losses = r.getArray("losses");
  for (std::size_t i = 0; i < losses.size(); ++i) {
    p.losses.push_back(
        lossFromJson(losses.at(i), path + ".losses[" + std::to_string(i) + "]"));
  }
  r.done();
  return p;
}

/// A numbered host count: each host needs a distinct numberedHost address.
int getHostCount(ObjectReader& r, const char* key) {
  const int n = r.getInt(key);
  if (n < 1 || n > kMaxNumberedHosts) {
    throw SpecError("\"" + r.path() + "." + key + "\" must be between 1 and " +
                    std::to_string(kMaxNumberedHosts) + ", got " + std::to_string(n));
  }
  return n;
}

Json faninToJson(const FaninTopology& f) {
  Json j = Json::object();
  j.set("senders", f.senders);
  j.set("egress_buffer_bytes", f.egressBufferBytes);
  j.set("egress_link", linkToJson(f.egressLink));
  j.set("sender_link", linkToJson(f.senderLink));
  return j;
}

FaninTopology faninFromJson(const Json& doc, const std::string& path) {
  ObjectReader r(doc, path);
  FaninTopology f;
  f.senders = getHostCount(r, "senders");
  f.egressBufferBytes = r.getUint("egress_buffer_bytes");
  f.egressLink = linkFromJson(r.getObject("egress_link"), path + ".egress_link");
  f.senderLink = linkFromJson(r.getObject("sender_link"), path + ".sender_link");
  r.done();
  return f;
}

Json edgeToJson(const EnterpriseEdgeTopology& e) {
  Json j = Json::object();
  j.set("pairs", e.pairs);
  j.set("core_link", linkToJson(e.coreLink));
  j.set("edge_link", linkToJson(e.edgeLink));
  return j;
}

EnterpriseEdgeTopology edgeFromJson(const Json& doc, const std::string& path) {
  ObjectReader r(doc, path);
  EnterpriseEdgeTopology e;
  e.pairs = getHostCount(r, "pairs");
  e.coreLink = linkFromJson(r.getObject("core_link"), path + ".core_link");
  e.edgeLink = linkFromJson(r.getObject("edge_link"), path + ".edge_link");
  r.done();
  return e;
}

Json siteToJson(const SiteTopology& s) {
  Json j = Json::object();
  j.set("design", toString(s.design));
  j.set("dtn_count", s.dtnCount);
  j.set("compute_node_count", s.computeNodeCount);
  j.set("wan", linkToJson(s.wan));
  j.set("untuned_hosts", s.untunedHosts);
  j.set("remote_storage_read_mbps", s.remoteStorageReadMbps);
  j.set("remote_storage_per_stream_cap_mbps", s.remoteStoragePerStreamCapMbps);
  return j;
}

SiteTopology siteFromJson(const Json& doc, const std::string& path) {
  ObjectReader r(doc, path);
  SiteTopology s;
  s.design = parseEnum<SiteDesign>(r.getString("design"), path + ".design",
                                   {{"general_purpose", SiteDesign::kGeneralPurpose},
                                    {"simple_dmz", SiteDesign::kSimpleDmz},
                                    {"supercomputer", SiteDesign::kSupercomputer},
                                    {"bigdata", SiteDesign::kBigData}});
  s.dtnCount = r.getInt("dtn_count");
  s.computeNodeCount = r.getInt("compute_node_count");
  s.wan = linkFromJson(r.getObject("wan"), path + ".wan");
  s.untunedHosts = r.getBool("untuned_hosts");
  s.remoteStorageReadMbps = r.getUint("remote_storage_read_mbps");
  s.remoteStoragePerStreamCapMbps = r.getUint("remote_storage_per_stream_cap_mbps");
  r.done();
  return s;
}

Json usecaseToJson(const UsecaseTopology& u) {
  Json j = Json::object();
  j.set("which", toString(u.which));
  if (u.which == UsecaseKind::kColorado) j.set("physics_hosts", u.physicsHosts);
  if (u.which != UsecaseKind::kPennStateSeries) j.set("vendor_fix", u.vendorFix);
  return j;
}

UsecaseTopology usecaseFromJson(const Json& doc, const std::string& path) {
  ObjectReader r(doc, path);
  UsecaseTopology u;
  u.which = parseEnum<UsecaseKind>(r.getString("which"), path + ".which",
                                   {{"colorado", UsecaseKind::kColorado},
                                    {"pennstate_inbound", UsecaseKind::kPennStateInbound},
                                    {"pennstate_outbound", UsecaseKind::kPennStateOutbound},
                                    {"pennstate_series", UsecaseKind::kPennStateSeries},
                                    {"noaa", UsecaseKind::kNoaa},
                                    {"nersc_olcf", UsecaseKind::kNerscOlcf}});
  if (u.which == UsecaseKind::kColorado) u.physicsHosts = getHostCount(r, "physics_hosts");
  if (u.which != UsecaseKind::kPennStateSeries) u.vendorFix = r.getBool("vendor_fix");
  r.done();
  return u;
}

Json topologyToJson(const TopologySpec& t) {
  Json j = Json::object();
  j.set("kind", toString(t.kind));
  switch (t.kind) {
    case TopologyKind::kPath: j.set("path", pathToJson(t.path)); break;
    case TopologyKind::kFanin: j.set("fanin", faninToJson(t.fanin)); break;
    case TopologyKind::kEnterpriseEdge: j.set("enterprise_edge", edgeToJson(t.edge)); break;
    case TopologyKind::kSite: j.set("site", siteToJson(t.site)); break;
    case TopologyKind::kUsecase: j.set("usecase", usecaseToJson(t.usecase)); break;
  }
  return j;
}

TopologySpec topologyFromJson(const Json& doc, const std::string& path) {
  ObjectReader r(doc, path);
  TopologySpec t;
  t.kind = parseEnum<TopologyKind>(r.getString("kind"), path + ".kind",
                                   {{"path", TopologyKind::kPath},
                                    {"fanin", TopologyKind::kFanin},
                                    {"enterprise_edge", TopologyKind::kEnterpriseEdge},
                                    {"site", TopologyKind::kSite},
                                    {"usecase", TopologyKind::kUsecase}});
  switch (t.kind) {
    case TopologyKind::kPath:
      t.path = pathFromJson(r.getObject("path"), path + ".path");
      break;
    case TopologyKind::kFanin:
      t.fanin = faninFromJson(r.getObject("fanin"), path + ".fanin");
      break;
    case TopologyKind::kEnterpriseEdge:
      t.edge = edgeFromJson(r.getObject("enterprise_edge"), path + ".enterprise_edge");
      break;
    case TopologyKind::kSite:
      t.site = siteFromJson(r.getObject("site"), path + ".site");
      break;
    case TopologyKind::kUsecase:
      t.usecase = usecaseFromJson(r.getObject("usecase"), path + ".usecase");
      break;
  }
  r.done();
  return t;
}

Json analysisToJson(const AnalysisSpec& a) {
  Json j = Json::object();
  j.set("validate", a.validate);
  j.set("assess_path", a.assessPath);
  j.set("window_scaling_broken", a.windowScalingBroken);
  return j;
}

AnalysisSpec analysisFromJson(const Json& doc, const std::string& path) {
  ObjectReader r(doc, path);
  AnalysisSpec a;
  a.validate = r.getBool("validate");
  a.assessPath = r.getBool("assess_path");
  a.windowScalingBroken = r.getBool("window_scaling_broken");
  r.done();
  return a;
}

// --- workloads -------------------------------------------------------------

Json workloadToJson(const WorkloadSpec& w) {
  Json j = Json::object();
  j.set("kind", toString(w.kind));
  j.set("label", w.label);
  switch (w.kind) {
    case WorkloadKind::kSteadyFlow:
      j.set("tcp", tcpToJson(w.tcp));
      j.set("port", w.port);
      j.set("warmup_s", w.warmupS);
      j.set("window_s", w.windowS);
      break;
    case WorkloadKind::kConvergingFlows:
      j.set("tcp", tcpToJson(w.tcp));
      j.set("base_port", w.port);
      j.set("warmup_s", w.warmupS);
      j.set("window_s", w.windowS);
      break;
    case WorkloadKind::kTimedFlow:
      j.set("tcp", tcpToJson(w.tcp));
      j.set("port", w.port);
      j.set("run_s", w.runS);
      break;
    case WorkloadKind::kParallelTransfer:
      j.set("tcp", tcpToJson(w.tcp));
      j.set("port", w.port);
      j.set("bytes", w.bytes);
      j.set("streams", w.streams);
      j.set("timeout_s", w.timeoutS);
      break;
    case WorkloadKind::kDtnTransfer:
      j.set("file", w.file);
      j.set("bytes", w.bytes);
      j.set("port", w.port);
      j.set("timeout_s", w.timeoutS);
      break;
    case WorkloadKind::kCampaign:
      j.set("src_cluster", w.srcCluster);
      j.set("dst_cluster", w.dstCluster);
      j.set("files", w.files);
      j.set("file_size_bytes", w.fileSizeBytes);
      j.set("file_prefix", w.filePrefix);
      j.set("file_suffix", w.fileSuffix);
      j.set("timeout_s", w.timeoutS);
      break;
    case WorkloadKind::kProbe:
      j.set("port", w.port);
      j.set("run_s", w.runS);
      break;
    case WorkloadKind::kRoce:
      j.set("rate_gbps", w.rateGbps);
      j.set("bytes", w.bytes);
      j.set("timeout_s", w.timeoutS);
      break;
    case WorkloadKind::kBackground:
      j.set("flows_per_second", w.flowsPerSecond);
      j.set("base_port", w.port);
      j.set("run_s", w.runS);
      j.set("drain_s", w.drainS);
      j.set("rng_fork", w.rngFork);
      break;
  }
  // Optional v2 fields, emitted only when non-default.
  if (workloadHasFidelity(w.kind) && w.fidelity != net::FlowFidelity::kPacket) {
    j.set("fidelity", net::toString(w.fidelity));
  }
  if (w.kind == WorkloadKind::kConvergingFlows && w.fluidFlows != 0) {
    j.set("fluid_flows", w.fluidFlows);
  }
  return j;
}

WorkloadSpec workloadFromJson(const Json& doc, const std::string& path) {
  ObjectReader r(doc, path);
  WorkloadSpec w;
  w.kind = parseEnum<WorkloadKind>(
      r.getString("kind"), path + ".kind",
      {{"steady_flow", WorkloadKind::kSteadyFlow},
       {"converging_flows", WorkloadKind::kConvergingFlows},
       {"timed_flow", WorkloadKind::kTimedFlow},
       {"parallel_transfer", WorkloadKind::kParallelTransfer},
       {"dtn_transfer", WorkloadKind::kDtnTransfer},
       {"campaign", WorkloadKind::kCampaign},
       {"probe", WorkloadKind::kProbe},
       {"roce", WorkloadKind::kRoce},
       {"background", WorkloadKind::kBackground}});
  w.label = r.getString("label");
  switch (w.kind) {
    case WorkloadKind::kSteadyFlow:
      w.tcp = tcpFromJson(r.getObject("tcp"), path + ".tcp");
      w.port = r.getInt("port");
      w.warmupS = r.getNumber("warmup_s");
      w.windowS = r.getNumber("window_s");
      break;
    case WorkloadKind::kConvergingFlows:
      w.tcp = tcpFromJson(r.getObject("tcp"), path + ".tcp");
      w.port = r.getInt("base_port");
      w.warmupS = r.getNumber("warmup_s");
      w.windowS = r.getNumber("window_s");
      break;
    case WorkloadKind::kTimedFlow:
      w.tcp = tcpFromJson(r.getObject("tcp"), path + ".tcp");
      w.port = r.getInt("port");
      w.runS = r.getNumber("run_s");
      break;
    case WorkloadKind::kParallelTransfer:
      w.tcp = tcpFromJson(r.getObject("tcp"), path + ".tcp");
      w.port = r.getInt("port");
      w.bytes = r.getUint("bytes");
      w.streams = r.getInt("streams");
      w.timeoutS = r.getNumber("timeout_s");
      break;
    case WorkloadKind::kDtnTransfer:
      w.file = r.getString("file");
      w.bytes = r.getUint("bytes");
      w.port = r.getInt("port");
      w.timeoutS = r.getNumber("timeout_s");
      break;
    case WorkloadKind::kCampaign:
      w.srcCluster = r.getString("src_cluster");
      w.dstCluster = r.getString("dst_cluster");
      w.files = r.getInt("files");
      w.fileSizeBytes = r.getUint("file_size_bytes");
      w.filePrefix = r.getString("file_prefix");
      w.fileSuffix = r.getString("file_suffix");
      w.timeoutS = r.getNumber("timeout_s");
      break;
    case WorkloadKind::kProbe:
      w.port = r.getInt("port");
      w.runS = r.getNumber("run_s");
      break;
    case WorkloadKind::kRoce:
      w.rateGbps = r.getUint("rate_gbps");
      w.bytes = r.getUint("bytes");
      w.timeoutS = r.getNumber("timeout_s");
      break;
    case WorkloadKind::kBackground:
      w.flowsPerSecond = r.getNumber("flows_per_second");
      w.port = r.getInt("base_port");
      w.runS = r.getNumber("run_s");
      w.drainS = r.getNumber("drain_s");
      w.rngFork = r.getUint("rng_fork");
      break;
  }
  // Optional fields, written only when non-default.
  if (workloadHasFidelity(w.kind) && r.has("fidelity")) {
    w.fidelity = parseEnum<net::FlowFidelity>(r.getString("fidelity"), path + ".fidelity",
                                              {{"packet", net::FlowFidelity::kPacket},
                                               {"fluid", net::FlowFidelity::kFluid}});
  }
  if (w.kind == WorkloadKind::kConvergingFlows && r.has("fluid_flows")) {
    w.fluidFlows = r.getInt("fluid_flows");
  }
  r.done();
  return w;
}

}  // namespace

// --- ScenarioSpec ----------------------------------------------------------

Json ScenarioSpec::toJson() const {
  Json j = Json::object();
  j.set("schema", kScenarioSchema);
  j.set("name", name);
  j.set("seed", seed);
  j.set("telemetry", telemetry);
  // Optional sharding knobs, emitted only when non-default.
  if (domains != 0) j.set("domains", domains);
  if (lookaheadUs != 0) j.set("lookahead_us", lookaheadUs);
  j.set("topology", topologyToJson(topology));
  j.set("analysis", analysisToJson(analysis));
  Json w = Json::array();
  for (const auto& workload : workloads) w.push(workloadToJson(workload));
  j.set("workloads", std::move(w));
  return j;
}

ScenarioSpec ScenarioSpec::fromJson(const Json& doc) {
  ObjectReader r(doc, "scenario");
  const std::string schema = r.getString("schema");
  if (schema != kScenarioSchema) {
    throw SpecError("unknown value \"" + schema + "\" for \"scenario.schema\" (expected \"" +
                    kScenarioSchema + "\")");
  }
  ScenarioSpec spec;
  spec.name = r.getString("name");
  spec.seed = r.getUint("seed");
  spec.telemetry = r.getBool("telemetry");
  if (r.has("domains")) {
    spec.domains = r.getInt("domains");
    if (spec.domains < 0) throw SpecError("\"scenario.domains\" must be non-negative");
  }
  if (r.has("lookahead_us")) spec.lookaheadUs = r.getUint("lookahead_us");
  spec.topology = topologyFromJson(r.getObject("topology"), "topology");
  spec.analysis = analysisFromJson(r.getObject("analysis"), "analysis");
  const Json& w = r.getArray("workloads");
  for (std::size_t i = 0; i < w.size(); ++i) {
    spec.workloads.push_back(workloadFromJson(w.at(i), "workloads[" + std::to_string(i) + "]"));
  }
  if (spec.topology.kind == TopologyKind::kUsecase && !spec.workloads.empty()) {
    throw SpecError("\"workloads\" must be empty for a usecase topology (\"" + spec.name +
                    "\"): the use case drives its own simulation");
  }
  r.done();
  return spec;
}

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  return fromJson(Json::parse(text));
}

const char* toString(CcAlgo v) {
  switch (v) {
    case CcAlgo::kReno: return "reno";
    case CcAlgo::kHtcp: return "htcp";
    case CcAlgo::kCubic: return "cubic";
  }
  return "?";
}

const char* toString(LossKind v) {
  return v == LossKind::kRandom ? "random" : "periodic";
}

const char* toString(Middlebox v) {
  switch (v) {
    case Middlebox::kNone: return "none";
    case Middlebox::kRouter: return "router";
    case Middlebox::kSwitch: return "switch";
    case Middlebox::kFirewall: return "firewall";
  }
  return "?";
}

const char* toString(SwitchProfileKind v) {
  return v == SwitchProfileKind::kDefault ? "default" : "science_dmz";
}

const char* toString(SiteDesign v) {
  switch (v) {
    case SiteDesign::kGeneralPurpose: return "general_purpose";
    case SiteDesign::kSimpleDmz: return "simple_dmz";
    case SiteDesign::kSupercomputer: return "supercomputer";
    case SiteDesign::kBigData: return "bigdata";
  }
  return "?";
}

const char* toString(UsecaseKind v) {
  switch (v) {
    case UsecaseKind::kColorado: return "colorado";
    case UsecaseKind::kPennStateInbound: return "pennstate_inbound";
    case UsecaseKind::kPennStateOutbound: return "pennstate_outbound";
    case UsecaseKind::kPennStateSeries: return "pennstate_series";
    case UsecaseKind::kNoaa: return "noaa";
    case UsecaseKind::kNerscOlcf: return "nersc_olcf";
  }
  return "?";
}

const char* toString(TopologyKind v) {
  switch (v) {
    case TopologyKind::kPath: return "path";
    case TopologyKind::kFanin: return "fanin";
    case TopologyKind::kEnterpriseEdge: return "enterprise_edge";
    case TopologyKind::kSite: return "site";
    case TopologyKind::kUsecase: return "usecase";
  }
  return "?";
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

const char* toString(WorkloadKind v) {
  switch (v) {
    case WorkloadKind::kSteadyFlow: return "steady_flow";
    case WorkloadKind::kConvergingFlows: return "converging_flows";
    case WorkloadKind::kTimedFlow: return "timed_flow";
    case WorkloadKind::kParallelTransfer: return "parallel_transfer";
    case WorkloadKind::kDtnTransfer: return "dtn_transfer";
    case WorkloadKind::kCampaign: return "campaign";
    case WorkloadKind::kProbe: return "probe";
    case WorkloadKind::kRoce: return "roce";
    case WorkloadKind::kBackground: return "background";
  }
  return "?";
}

}  // namespace scidmz::scenario
