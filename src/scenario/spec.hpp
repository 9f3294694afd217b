// ScenarioSpec: the declarative description of one simulation cell — the
// topology (a point-to-point science path, a fan-in aggregation, an
// enterprise edge, one of the paper's reference site designs, a Section 6
// use case, or a WAN ring of sites), optional analytic passes (validator,
// path assessment), and an ordered list of workloads to run over it.
//
// Specs serialize to `scidmz.scenario.v2` JSON documents, the only schema
// parsing accepts, with the discipline of the binary seam's
// serialize(Codec&): one dual-mode io() per fragment (spec.cpp) both writes
// and reads each key, stating its name, order, presence and bounds once.
// Optional keys (per-flow model fidelity, converging-flow fluid counts,
// sharding knobs) appear only when non-default; every other field always
// appears, in a fixed order, so parse -> serialize -> parse is
// byte-identical and a dumped spec is the fixed point of its own round
// trip. Unknown keys, unrecognized enum values and values out of bounds
// (a rate of 0, a negative duration, a port past 65535, an ip that is not a
// dotted quad) are hard errors that name the offending key path — a bad
// hand-written scenario file fails loudly at parse, not in the run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "scenario/json.hpp"
#include "tcp/congestion.hpp"

namespace scidmz::scenario {

inline constexpr const char* kScenarioSchema = "scidmz.scenario.v2";
inline constexpr const char* kCatalogSchema = "scidmz.scenario.catalog.v1";

// --- shared fragments ------------------------------------------------------

struct LinkSpec {
  std::uint64_t rateMbps = 10000;  ///< matches net::LinkParams default 10 Gbps
  std::uint64_t delayUs = 5;       ///< one-way propagation delay
  std::uint64_t mtuBytes = 1500;
};

struct HostSpec {
  std::string name;
  std::string ip;  ///< dotted quad
};

/// A workload's congestion control, named on the wire by tcp::toString.
using CcAlgo = tcp::CcAlgorithm;

struct TcpSpec {
  CcAlgo cc = CcAlgo::kHtcp;
  std::uint64_t bufBytes = 16 * 1024 * 1024;  ///< snd and rcv buffer alike
  bool pacing = false;
};

enum class LossKind { kRandom, kPeriodic };

/// A loss model attached to one end of one path segment.
struct LossSpec {
  int segment = 0;    ///< 0 = src->mid (or src->dst), 1 = mid->dst
  int direction = 0;  ///< link end the model attaches to (0 = first endpoint)
  LossKind kind = LossKind::kRandom;
  double rate = 0.0;         ///< random: per-packet drop probability
  std::uint64_t period = 0;  ///< periodic: drop 1 in `period`
  std::uint64_t rngFork = 1;  ///< random: scenario-rng fork index
};

// --- topologies ------------------------------------------------------------

enum class Middlebox { kNone, kRouter, kSwitch, kFirewall };
enum class SwitchProfileKind { kDefault, kScienceDmz };

/// src --link--> [middlebox] --link2--> dst (link2 defaults to link).
struct PathTopology {
  HostSpec src{"a", "10.0.0.1"};
  HostSpec dst{"b", "10.0.0.2"};
  Middlebox middlebox = Middlebox::kNone;
  std::string midName = "mid";
  LinkSpec link;
  std::optional<LinkSpec> link2;
  // Switch middlebox options.
  SwitchProfileKind switchProfile = SwitchProfileKind::kDefault;
  std::uint64_t egressBufferBytes = 0;  ///< 0 = profile default
  bool aclPermitAllDefaultDeny = false;  ///< the compiled DMZ policy shape
  // Firewall middlebox options.
  bool firewallSeqChecking = true;  ///< enterprise10G() default
  std::uint64_t idsVettingPackets = 0;  ///< >0: IDS + OpenFlow bypass
  std::vector<LossSpec> losses;
};

/// Most hosts one numbered block can address (255 /24s of 254 hosts each;
/// see numberedHost in engine.hpp). A fan-in's `senders`, an enterprise
/// edge's `pairs` and Colorado's `physics_hosts` lie in [1, this].
inline constexpr int kMaxNumberedHosts = 255 * 254;

/// `senders` hosts on fast ports converge on one egress toward a sink.
struct FaninTopology {
  int senders = 2;
  std::uint64_t egressBufferBytes = 32 * 1024 * 1024;
  LinkSpec egressLink;  ///< switch -> sink
  LinkSpec senderLink;  ///< each sender -> switch
};

/// outside-switch -> firewall -> inside-switch with `pairs` client/server
/// hosts on 1G edges — the business-traffic shape of Section 5.
struct EnterpriseEdgeTopology {
  int pairs = 4;
  LinkSpec coreLink{10000, 5000, 1500};
  LinkSpec edgeLink{1000, 5, 1500};
};

enum class SiteDesign { kGeneralPurpose, kSimpleDmz, kSupercomputer, kBigData };

/// One of the paper's reference designs via core::buildX(SiteConfig).
struct SiteTopology {
  SiteDesign design = SiteDesign::kSimpleDmz;
  int dtnCount = 4;
  int computeNodeCount = 4;
  LinkSpec wan{10000, 10000, 9000};  ///< WanConfig defaults
  bool untunedHosts = false;  ///< untunedGeneralPurpose() DTN + remote profiles
  std::uint64_t remoteStorageReadMbps = 0;          ///< 0 = profile default
  std::uint64_t remoteStoragePerStreamCapMbps = 0;  ///< 0 = profile default
};

/// One Section 6 use-case simulation (src/scenario/catalog_usecases.cpp).
enum class UsecaseKind {
  kColorado,           ///< fan-in downloads through the RCNet aggregation switch
  kPennStateInbound,   ///< one VTTI -> CoE transfer across the CoE firewall
  kPennStateOutbound,  ///< one CoE -> VTTI transfer across the CoE firewall
  kPennStateSeries,    ///< Figure 8 utilization series, remedy applied live
  kNoaa,               ///< reforecast retrieval, legacy FTP or DMZ DTN path
  kNerscOlcf,          ///< inter-center transfer, login node or DTN path
};

/// A Section 6 use case: the use case builds and drives its own topology
/// and traffic in the cell's scenario, so it takes no workloads.
struct UsecaseTopology {
  UsecaseKind which = UsecaseKind::kColorado;
  int physicsHosts = 5;    ///< colorado
  bool vendorFix = false;  ///< after the paper's remedy (all but the series)
};

/// `sites` routers in a WAN ring, each with `hostsPerSite` hosts on `lan`
/// links; segment r<i> -> r<i+1 mod sites> is `wan[i mod wan.size()]`. The
/// default 10/12/14/12 ms cycle gives the shard cuts unequal delays while
/// transit load still balances. A timed_flow streams from every host to
/// its peer one site clockwise.
struct RingTopology {
  int sites = 8;
  int hostsPerSite = 4;
  std::vector<LinkSpec> wan{{100000, 10000, 9000},
                            {100000, 12000, 9000},
                            {100000, 14000, 9000},
                            {100000, 12000, 9000}};
  LinkSpec lan{10000, 10, 9000};
};

enum class TopologyKind { kPath, kFanin, kEnterpriseEdge, kSite, kUsecase, kRing };

struct TopologySpec {
  TopologyKind kind = TopologyKind::kPath;
  PathTopology path;
  FaninTopology fanin;
  EnterpriseEdgeTopology edge;
  SiteTopology site;
  UsecaseTopology usecase;
  RingTopology ring;
};

// --- analysis --------------------------------------------------------------

/// Analytic passes run before the workloads (site topologies only).
struct AnalysisSpec {
  bool validate = false;    ///< core::validate -> "validate.criticals"
  bool assessPath = false;  ///< core::assessPath remote -> primary DTN
  bool windowScalingBroken = false;  ///< PathAssumptions for assessPath
};

// --- workloads -------------------------------------------------------------

enum class WorkloadKind {
  kSteadyFlow,       ///< one bulk flow, warmup + measured window
  kConvergingFlows,  ///< fan-in: one bulk flow per sender into the sink
  kTimedFlow,        ///< one bulk flow, goodput over a fixed run time
  kParallelTransfer, ///< apps::ParallelTransfer of `bytes` over N streams
  kDtnTransfer,      ///< dtn::DtnTransfer remote DTN -> primary DTN
  kCampaign,         ///< dtn::TransferCampaign over the site's DTN pool
  kProbe,            ///< unsanctioned TCP connection attempt
  kRoce,             ///< vc::RoceTransfer between the path endpoints
  kBackground,       ///< apps::BackgroundTraffic over the enterprise edge
};

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kSteadyFlow;
  /// Metric prefix; a labeled workload also snapshots device counters
  /// (fw/sw) under "<label>." when it completes.
  std::string label;
  TcpSpec tcp;
  int port = 5001;        ///< steady/timed/parallel/dtn/probe; fan-in base
  double warmupS = 5.0;   ///< steady_flow, converging_flows
  double windowS = 15.0;  ///< steady_flow, converging_flows
  double runS = 20.0;     ///< timed_flow, probe, background active phase
  double drainS = 10.0;   ///< background: post-stop drain
  double timeoutS = 1200.0;  ///< parallel/dtn/campaign/roce run bound
  std::uint64_t bytes = 0;   ///< parallel total, dtn file, roce payload
  int streams = 1;           ///< parallel_transfer; timed_flow: flows per host pair
  std::string file = "sample.dat";  ///< dtn_transfer
  std::string srcCluster = "src";   ///< campaign
  std::string dstCluster = "dst";   ///< campaign
  int files = 0;                    ///< campaign
  std::uint64_t fileSizeBytes = 0;  ///< campaign
  std::string filePrefix;           ///< campaign: name = prefix + i + suffix
  std::string fileSuffix;           ///< campaign
  double flowsPerSecond = 50.0;     ///< background
  std::uint64_t rngFork = 3;        ///< background: scenario-rng fork index
  std::uint64_t rateGbps = 40;      ///< roce line rate
  // -- optional fields (serialized only when non-default) --
  /// Flow model fidelity for TCP-flow workloads (steady/converging/timed/
  /// parallel/probe/background).
  net::FlowFidelity fidelity = net::FlowFidelity::kPacket;
  /// converging_flows: the first `fluidFlows` senders run at fluid fidelity
  /// regardless of `fidelity` — the mixed-fidelity bottleneck-sharing knob.
  int fluidFlows = 0;
};

/// True for the workload kinds that create TCP flows and therefore honor
/// the v2 `fidelity` field.
[[nodiscard]] bool workloadHasFidelity(WorkloadKind kind);

// --- the spec --------------------------------------------------------------

struct ScenarioSpec {
  std::string name;
  std::uint64_t seed = 20130101;  ///< scenario rng seed (the paper's SC13 date)
  bool telemetry = false;  ///< force-enable telemetry for this cell
  // -- v2 fields (serialized only when non-default) --
  /// Sharded execution: partition the topology into this many per-worker
  /// domains cut at WAN links (see DESIGN.md "Sharded execution"). 0 keeps
  /// the classic single-queue path; any non-zero value (1 included) runs
  /// the sharded scheduler, so results byte-compare across domain counts.
  /// `scidmz_run --domains=N` overrides this per process.
  int domains = 0;
  /// Conservative lookahead floor in microseconds; links with at least this
  /// much propagation delay are cut-eligible. 0 = the 1 ms default.
  std::uint64_t lookaheadUs = 0;
  TopologySpec topology;
  AnalysisSpec analysis;
  std::vector<WorkloadSpec> workloads;

  /// Canonical scidmz.scenario.v2 document (fixed field order).
  [[nodiscard]] Json toJson() const;
  /// Parse and validate; throws SpecError naming the offending key.
  static ScenarioSpec fromJson(const Json& doc);
  static ScenarioSpec parse(const std::string& text);
};

// Enum <-> string helpers (shared with the engine and the CLI).
[[nodiscard]] const char* toString(LossKind v);
[[nodiscard]] const char* toString(Middlebox v);
[[nodiscard]] const char* toString(SwitchProfileKind v);
[[nodiscard]] const char* toString(SiteDesign v);
[[nodiscard]] const char* toString(UsecaseKind v);
[[nodiscard]] const char* toString(TopologyKind v);
[[nodiscard]] const char* toString(WorkloadKind v);

/// Refuses, with a SpecError naming `workloads[N].<key>`, a workload whose
/// ports basePort .. basePort + ports - 1 pass 65535: a port is 16 bits,
/// so the later flows would wrap to port 0, 1, ...
void checkPortBlock(std::size_t workload, const char* key, int basePort, std::size_t ports);

}  // namespace scidmz::scenario
