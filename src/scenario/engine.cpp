#include "scenario/engine.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "apps/background_traffic.hpp"
#include "apps/parallel_transfer.hpp"
#include "core/path_analysis.hpp"
#include "core/site.hpp"
#include "core/site_builder.hpp"
#include "core/validator.hpp"
#include "dtn/dtn_cluster.hpp"
#include "dtn/dtn_node.hpp"
#include "net/acl.hpp"
#include "net/ids.hpp"
#include "net/loss.hpp"
#include "scenario/harness.hpp"
#include "scenario/shard.hpp"
#include "vc/openflow.hpp"
#include "vc/roce.hpp"

namespace scidmz::scenario {
namespace {

tcp::TcpConfig toTcpConfig(const TcpSpec& spec) {
  tcp::TcpConfig cfg;
  cfg.algorithm = spec.cc;
  cfg.sndBuf = sim::DataSize::bytes(spec.bufBytes);
  cfg.rcvBuf = sim::DataSize::bytes(spec.bufBytes);
  cfg.pacing = spec.pacing;
  return cfg;
}

net::LinkParams toLinkParams(const LinkSpec& spec) {
  net::LinkParams params;
  params.rate = sim::DataRate::megabitsPerSecond(spec.rateMbps);
  params.delay = sim::Duration::microseconds(static_cast<std::int64_t>(spec.delayUs));
  params.mtu = sim::DataSize::bytes(spec.mtuBytes);
  return params;
}

/// Per-workload live state whose addresses must stay stable for the whole
/// cell: simulator callbacks capture pointers into these.
struct FlowSet {
  std::vector<net::FlowPtr> flows;
  bool connected = false;  ///< probe: established
  /// timed_flow: flow k's server side accepted. A byte per flow, so shard
  /// domains accepting at the same time write to different bytes.
  std::vector<std::uint8_t> accepted;
};

/// Two hosts a timed_flow streams between; a non-empty `group` also counts
/// the pair's delivered bits under "<prefix>.<group>.delivered_bits".
struct HostPair {
  net::Host* src = nullptr;
  net::Host* dst = nullptr;
  std::string group;
};

/// Everything the spec materialized into; owns all objects that must
/// outlive the workloads (the topology itself lives in the Scenario).
struct Materialized {
  // Devices of interest (non-owning; the topology owns them).
  net::FirewallDevice* fw = nullptr;
  net::SwitchDevice* sw = nullptr;
  net::Host* src = nullptr;  ///< path
  net::Host* dst = nullptr;  ///< path
  std::vector<HostPair> pairs;            ///< path (src, dst); ring: each host clockwise
  net::Host* sink = nullptr;              ///< fanin
  std::vector<net::Host*> senders;        ///< fanin
  std::vector<net::Host*> edgeClients;    ///< enterprise edge
  std::vector<net::Host*> edgeServers;    ///< enterprise edge
  std::vector<net::Link*> links;          ///< path segments in connect order

  std::unique_ptr<net::IntrusionDetectionSystem> ids;
  std::unique_ptr<vc::BypassController> bypass;
  std::unique_ptr<core::Site> site;

  // Live workload objects.
  std::deque<FlowSet> flowSets;
  std::vector<std::unique_ptr<SteadyFlow>> steadyFlows;
  std::vector<std::unique_ptr<apps::ParallelTransfer>> parallelTransfers;
  std::vector<std::unique_ptr<dtn::DtnTransfer>> dtnTransfers;
  std::vector<std::unique_ptr<dtn::DtnCluster>> clusters;
  std::vector<std::unique_ptr<dtn::TransferCampaign>> campaigns;
  std::vector<std::unique_ptr<apps::BackgroundTraffic>> backgroundTraffic;
  std::vector<std::unique_ptr<vc::RoceTransfer>> roceTransfers;
};

[[noreturn]] void incompatible(const WorkloadSpec& w, const TopologySpec& t) {
  throw SpecError(std::string{"workload \""} + toString(w.kind) +
                  "\" cannot run on a \"" + toString(t.kind) + "\" topology");
}

using Kind = DeviceGraph::Kind;

/// src, [middlebox], dst: the middlebox is built between the hosts, so the
/// partitioner's atoms follow the path.
DeviceGraph pathGraph(const PathTopology& t) {
  DeviceGraph g;
  const auto src = g.add(Kind::kHost, t.src.name, net::Address::parse(t.src.ip));
  auto mid = src;  // no middlebox: src links straight to dst
  switch (t.middlebox) {
    case Middlebox::kNone: break;
    case Middlebox::kRouter: mid = g.add(Kind::kRouter, t.midName); break;
    case Middlebox::kSwitch: {
      mid = g.add(Kind::kSwitch, t.midName);
      auto& profile = g.nodes[mid].switchProfile;
      profile = t.switchProfile == SwitchProfileKind::kScienceDmz ? net::SwitchProfile::scienceDmz()
                                                                 : net::SwitchProfile{};
      if (t.egressBufferBytes > 0) profile.egressBuffer = sim::DataSize::bytes(t.egressBufferBytes);
      break;
    }
    case Middlebox::kFirewall:
      mid = g.add(Kind::kFirewall, t.midName);
      g.nodes[mid].firewallProfile = net::FirewallProfile::enterprise10G();
      g.nodes[mid].firewallProfile.tcpSequenceChecking = t.firewallSeqChecking;
      break;
  }
  const auto dst = g.add(Kind::kHost, t.dst.name, net::Address::parse(t.dst.ip));
  if (mid == src) {
    g.connect(src, dst, toLinkParams(t.link));
  } else {
    g.connect(src, mid, toLinkParams(t.link));
    g.connect(mid, dst, toLinkParams(t.link2 ? *t.link2 : t.link));
  }
  return g;
}

/// Site i is router r<i> then hosts s<i>h0, s<i>h1, ..., each linked to the
/// router as it is added; the WAN segments r<i> -> r<i+1 mod sites> come last.
DeviceGraph ringGraph(const RingTopology& t) {
  DeviceGraph g;
  const auto lan = toLinkParams(t.lan);
  for (int i = 0; i < t.sites; ++i) {
    const auto router = g.add(Kind::kRouter, numberedName("r", static_cast<std::size_t>(i)));
    for (int j = 0; j < t.hostsPerSite; ++j) {
      std::string name = numberedName("s", static_cast<std::size_t>(i));
      name += 'h';
      name += std::to_string(j);
      const net::Address address(10, static_cast<std::uint8_t>(i),
                                 static_cast<std::uint8_t>(j / 250),
                                 static_cast<std::uint8_t>(j % 250 + 1));
      g.connect(g.add(Kind::kHost, std::move(name), address), router, lan);
    }
  }
  const auto site = static_cast<std::size_t>(t.hostsPerSite) + 1;  // nodes per site
  for (std::size_t i = 0; i < g.nodes.size(); i += site) {
    const LinkSpec& wan = t.wan[i / site % t.wan.size()];
    g.connect(i, (i + site) % g.nodes.size(), toLinkParams(wan));
  }
  return g;
}

/// Add `g`'s devices, then its links, to the topology, so that
/// topo.devices() and topo.links() follow the graph's order.
void build(const DeviceGraph& g, net::Topology& topo) {
  std::vector<net::Device*> devices;
  devices.reserve(g.nodes.size());
  for (const auto& node : g.nodes) {
    switch (node.kind) {
      case Kind::kHost: devices.push_back(&topo.addHost(node.name, node.address)); break;
      case Kind::kRouter: devices.push_back(&topo.addRouter(node.name, node.switchProfile)); break;
      case Kind::kSwitch: devices.push_back(&topo.addSwitch(node.name, node.switchProfile)); break;
      case Kind::kFirewall:
        devices.push_back(&topo.addFirewall(node.name, node.firewallProfile));
        break;
    }
  }
  for (const auto& link : g.links) topo.connect(*devices[link.a], *devices[link.b], link.params);
}

void buildPath(const PathTopology& t, const DeviceGraph& g, Scenario& s, Materialized& m) {
  build(g, s.topo);
  const auto& devices = s.topo.devices();
  m.src = static_cast<net::Host*>(devices.front().get());
  m.dst = static_cast<net::Host*>(devices.back().get());
  m.pairs.push_back({m.src, m.dst, {}});
  for (const auto& link : s.topo.links()) m.links.push_back(link.get());
  if (t.middlebox == Middlebox::kSwitch) {
    m.sw = static_cast<net::SwitchDevice*>(devices[1].get());
    if (t.aclPermitAllDefaultDeny) {
      net::AclTable acl{net::AclAction::kDeny};
      net::AclRule permitAll;
      permitAll.action = net::AclAction::kPermit;
      acl.append(permitAll);
      m.sw->setAcl(acl);
    }
  }
  if (t.middlebox == Middlebox::kFirewall) {
    m.fw = static_cast<net::FirewallDevice*>(devices[1].get());
    if (t.idsVettingPackets > 0) {
      m.ids = std::make_unique<net::IntrusionDetectionSystem>();
      m.ids->setVettingPacketCount(t.idsVettingPackets);
      m.bypass = std::make_unique<vc::BypassController>(*m.fw, *m.ids);
    }
  }
  for (const auto& loss : t.losses) {
    if (loss.segment < 0 || static_cast<std::size_t>(loss.segment) >= m.links.size()) {
      throw SpecError("loss segment " + std::to_string(loss.segment) +
                      " out of range for this path");
    }
    auto& wire = *m.links[static_cast<std::size_t>(loss.segment)];
    if (loss.kind == LossKind::kRandom) {
      wire.setLossModel(loss.direction,
                        std::make_unique<net::RandomLoss>(loss.rate, s.rng.fork(loss.rngFork)));
    } else {
      wire.setLossModel(loss.direction, std::make_unique<net::PeriodicLoss>(loss.period));
    }
  }
  s.topo.computeRoutes();
}

/// Every host streams to its peer one site clockwise: one WAN hop per
/// flow, and the same transit load on every ring segment.
void buildRing(const RingTopology& t, const DeviceGraph& g, Scenario& s, Materialized& m) {
  build(g, s.topo);
  const auto& devices = s.topo.devices();
  const auto site = static_cast<std::size_t>(t.hostsPerSite) + 1;  // a router, then its hosts
  for (std::size_t k = 0; k < devices.size(); ++k) {
    if (k % site == 0) continue;
    const std::size_t peer = (k + site) % devices.size();
    m.pairs.push_back({static_cast<net::Host*>(devices[k].get()),
                       static_cast<net::Host*>(devices[peer].get()),
                       numberedName("site", peer / site)});
  }
  s.topo.computeRoutes();
}

void buildFanin(const FaninTopology& t, Scenario& s, Materialized& m) {
  net::SwitchProfile profile = net::SwitchProfile::scienceDmz();
  profile.egressBuffer = sim::DataSize::bytes(t.egressBufferBytes);
  auto& sw = s.topo.addSwitch("agg", profile);
  m.sw = &sw;
  auto& sink = s.topo.addHost("sink", net::Address(10, 0, 0, 99));
  m.sink = &sink;
  s.topo.connect(sw, sink, toLinkParams(t.egressLink));
  const auto in = toLinkParams(t.senderLink);
  for (int i = 0; i < t.senders; ++i) {
    auto& h = s.topo.addHost(numberedName("h", i), numberedHost(10, 0, i));
    s.topo.connect(h, sw, in);
    m.senders.push_back(&h);
  }
  s.topo.computeRoutes();
}

void buildEnterpriseEdge(const EnterpriseEdgeTopology& t, Scenario& s, Materialized& m) {
  auto& fw = s.topo.addFirewall("fw", net::FirewallProfile::enterprise10G());
  m.fw = &fw;
  auto& outside = s.topo.addSwitch("outside");
  auto& inside = s.topo.addSwitch("inside");
  const auto core = toLinkParams(t.coreLink);
  s.topo.connect(outside, fw, core);
  s.topo.connect(fw, inside, core);
  const auto edge = toLinkParams(t.edgeLink);
  for (int i = 0; i < t.pairs; ++i) {
    auto& c = s.topo.addHost(numberedName("c", i), numberedHost(198, 0, i));
    s.topo.connect(c, outside, edge);
    m.edgeClients.push_back(&c);
    auto& v = s.topo.addHost(numberedName("s", i), numberedHost(10, 20, i));
    s.topo.connect(v, inside, edge);
    m.edgeServers.push_back(&v);
  }
  s.topo.computeRoutes();
}

void buildSite(const SiteTopology& t, Scenario& s, Materialized& m) {
  core::SiteConfig config;
  config.wan.rate = sim::DataRate::megabitsPerSecond(t.wan.rateMbps);
  config.wan.delay = sim::Duration::microseconds(static_cast<std::int64_t>(t.wan.delayUs));
  config.wan.mtu = sim::DataSize::bytes(t.wan.mtuBytes);
  config.dtnCount = t.dtnCount;
  config.computeNodeCount = t.computeNodeCount;
  if (t.untunedHosts) {
    config.dtnProfile = dtn::DtnProfile::untunedGeneralPurpose();
    config.remoteProfile = dtn::DtnProfile::untunedGeneralPurpose();
  }
  if (t.remoteStorageReadMbps > 0) {
    config.remoteStorage.readRate = sim::DataRate::megabitsPerSecond(t.remoteStorageReadMbps);
  }
  if (t.remoteStoragePerStreamCapMbps > 0) {
    config.remoteStorage.perStreamCap =
        sim::DataRate::megabitsPerSecond(t.remoteStoragePerStreamCapMbps);
  }
  switch (t.design) {
    case SiteDesign::kGeneralPurpose: m.site = core::buildGeneralPurposeCampus(s.topo, config); break;
    case SiteDesign::kSimpleDmz: m.site = core::buildSimpleScienceDmz(s.topo, config); break;
    case SiteDesign::kSupercomputer: m.site = core::buildSupercomputerCenter(s.topo, config); break;
    case SiteDesign::kBigData: m.site = core::buildBigDataSite(s.topo, config); break;
  }
  m.fw = m.site->enterpriseFirewall;
  m.sw = m.site->dmzSwitch;
}

/// Device counters of interest, written as "<prefix>fw.…" / "<prefix>sw.…".
/// Called with prefix "" at end of cell and with "<label>." right after a
/// labeled workload completes.
void recordDeviceMetrics(const Materialized& m, ScenarioResult& r, const std::string& prefix) {
  if (m.fw != nullptr) {
    const auto& stats = m.fw->firewallStats();
    r.metrics[prefix + "fw.inspected"] = static_cast<double>(stats.inspected);
    r.metrics[prefix + "fw.drops_input_buffer"] = static_cast<double>(stats.dropsInputBuffer);
  }
  if (m.sw != nullptr) {
    r.metrics[prefix + "sw.drops_acl"] = static_cast<double>(m.sw->stats().dropsAcl);
    r.metrics[prefix + "sw.egress_drop_fraction"] =
        m.sw->interface(0).queue().stats().dropFraction();
  }
}

void runAnalysis(const ScenarioSpec& spec, Scenario& s, Materialized& m, ScenarioResult& r) {
  if (!spec.analysis.validate && !spec.analysis.assessPath) return;
  if (!m.site) throw SpecError("analysis passes require a \"site\" topology");
  if (spec.analysis.validate) {
    r.metrics["validate.criticals"] =
        static_cast<double>(core::validate(*m.site).criticalCount());
  }
  if (spec.analysis.assessPath) {
    core::PathAssumptions assumptions;
    assumptions.endpoint = m.site->primaryDtn()->profile().tcp;
    assumptions.windowScalingBroken = spec.analysis.windowScalingBroken;
    const auto assessment =
        core::assessPath(s.topo, m.site->remoteDtn->host().address(),
                         m.site->primaryDtn()->host().address(), assumptions);
    if (assessment) {
      r.metrics["path.crosses_firewall"] = assessment->crossesFirewall ? 1.0 : 0.0;
      r.metrics["path.predicted_bps"] =
          static_cast<double>(assessment->expectedThroughput.bps());
    }
  }
}

void runWorkload(const WorkloadSpec& w, const std::string& p, const ScenarioSpec& spec,
                 Scenario& s, Materialized& m, ScenarioResult& r) {
  const auto port = static_cast<std::uint16_t>(w.port);
  switch (w.kind) {
    case WorkloadKind::kSteadyFlow: {
      if (m.src == nullptr) incompatible(w, spec.topology);
      m.steadyFlows.push_back(
          std::make_unique<SteadyFlow>(s, *m.src, *m.dst, toTcpConfig(w.tcp), port, w.fidelity));
      auto& flow = *m.steadyFlows.back();
      const auto rate = flow.measure(sim::Duration::fromSeconds(w.warmupS),
                                     sim::Duration::fromSeconds(w.windowS));
      r.metrics[p + ".bps"] = static_cast<double>(rate.bps());
      r.metrics[p + ".established"] = flow.established() ? 1.0 : 0.0;
      break;
    }
    case WorkloadKind::kConvergingFlows: {
      if (m.sink == nullptr) incompatible(w, spec.topology);
      const auto cfg = toTcpConfig(w.tcp);
      m.flowSets.emplace_back();
      auto& set = m.flowSets.back();
      // Mixed-fidelity fan-in: the first `fluid_flows` senders run on the
      // analytic engine, the rest at the workload's base fidelity — the
      // bottleneck-sharing experiment in one knob.
      const std::size_t fluidCount =
          w.fluidFlows > 0
              ? std::min<std::size_t>(static_cast<std::size_t>(w.fluidFlows), m.senders.size())
              : 0;
      for (std::size_t i = 0; i < m.senders.size(); ++i) {
        net::FlowFactory::Options options;
        options.port = static_cast<std::uint16_t>(w.port + static_cast<int>(i));
        options.fidelity = i < fluidCount ? net::FlowFidelity::kFluid : w.fidelity;
        auto flow = net::flowFactory(s.ctx).create(*m.senders[i], *m.sink, cfg, options);
        auto* raw = flow.get();
        flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
        flow->start();
        set.flows.push_back(std::move(flow));
      }
      s.runFor(sim::Duration::fromSeconds(w.warmupS));
      std::vector<sim::DataSize> base(set.flows.size(), sim::DataSize::zero());
      for (std::size_t i = 0; i < set.flows.size(); ++i) base[i] = set.flows[i]->deliveredBytes();
      s.runFor(sim::Duration::fromSeconds(w.windowS));
      sim::DataSize packetDelta = sim::DataSize::zero();
      sim::DataSize fluidDelta = sim::DataSize::zero();
      for (std::size_t i = 0; i < set.flows.size(); ++i) {
        const auto delta = set.flows[i]->deliveredBytes() - base[i];
        if (set.flows[i]->fidelity() == net::FlowFidelity::kFluid) {
          fluidDelta += delta;
        } else {
          packetDelta += delta;
        }
      }
      r.metrics[p + ".delta_bits"] = static_cast<double>((packetDelta + fluidDelta).bitCount());
      if (fluidCount > 0) {
        r.metrics[p + ".packet_bits"] = static_cast<double>(packetDelta.bitCount());
        r.metrics[p + ".fluid_bits"] = static_cast<double>(fluidDelta.bitCount());
      }
      break;
    }
    case WorkloadKind::kTimedFlow: {
      if (m.pairs.empty()) incompatible(w, spec.topology);
      const auto cfg = toTcpConfig(w.tcp);
      m.flowSets.emplace_back();
      auto& set = m.flowSets.back();
      set.accepted.assign(m.pairs.size() * static_cast<std::size_t>(w.streams), 0);
      // Stream f of every pair uses port + f, so each server port is unique
      // per (src, dst, stream) and merged span exports stay unambiguous.
      for (const HostPair& pair : m.pairs) {
        for (int f = 0; f < w.streams; ++f) {
          net::FlowFactory::Options options;
          options.port = static_cast<std::uint16_t>(w.port + f);
          options.fidelity = w.fidelity;
          // Create through the src host's context: under sharding the flow's
          // client side (timers, arena blocks) must live in src's domain.
          auto flow = net::flowFactory(pair.src->ctx()).create(*pair.src, *pair.dst, cfg, options);
          auto* raw = flow.get();
          flow->onAccepted = [slot = &set.accepted[set.flows.size()]](int) { *slot = 1; };
          flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
          flow->start();
          set.flows.push_back(std::move(flow));
        }
      }
      s.runFor(sim::Duration::fromSeconds(w.runS));
      double& delivered = r.metrics[p + ".delivered_bits"];
      double& retx = r.metrics[p + ".retx"];
      for (std::size_t k = 0; k < set.flows.size(); ++k) {
        const auto bits = static_cast<double>(set.flows[k]->deliveredBytes().bitCount());
        delivered += bits;
        retx += static_cast<double>(set.flows[k]->retransmits());
        const std::string& group = m.pairs[k / static_cast<std::size_t>(w.streams)].group;
        if (!group.empty()) r.metrics[p + "." + group + ".delivered_bits"] += bits;
      }
      r.metrics[p + ".established"] =
          std::count(set.accepted.begin(), set.accepted.end(), 0) == 0 ? 1.0 : 0.0;
      r.metrics[p + ".flows"] = static_cast<double>(set.flows.size());
      break;
    }
    case WorkloadKind::kParallelTransfer: {
      if (m.src == nullptr) incompatible(w, spec.topology);
      m.parallelTransfers.push_back(std::make_unique<apps::ParallelTransfer>(
          *m.src, *m.dst, port, sim::DataSize::bytes(w.bytes), w.streams, toTcpConfig(w.tcp),
          w.fidelity));
      auto& transfer = *m.parallelTransfers.back();
      transfer.start();
      s.runFor(sim::Duration::fromSeconds(w.timeoutS));
      r.metrics[p + ".finished"] = transfer.finished() ? 1.0 : 0.0;
      r.metrics[p + ".elapsed_s"] = transfer.elapsed().toSeconds();
      break;
    }
    case WorkloadKind::kDtnTransfer: {
      if (!m.site || m.site->remoteDtn == nullptr || m.site->primaryDtn() == nullptr) {
        incompatible(w, spec.topology);
      }
      m.dtnTransfers.push_back(std::make_unique<dtn::DtnTransfer>(
          *m.site->remoteDtn, *m.site->primaryDtn(), w.file, sim::DataSize::bytes(w.bytes), port));
      auto& transfer = *m.dtnTransfers.back();
      transfer.start();
      s.runFor(sim::Duration::fromSeconds(w.timeoutS));
      r.metrics[p + ".completed"] = transfer.finished() ? 1.0 : 0.0;
      r.metrics[p + ".bps"] =
          transfer.finished() ? static_cast<double>(transfer.result().averageRate.bps()) : 0.0;
      break;
    }
    case WorkloadKind::kCampaign: {
      if (!m.site || m.site->remoteDtn == nullptr || m.site->dtns.empty()) {
        incompatible(w, spec.topology);
      }
      m.clusters.push_back(std::make_unique<dtn::DtnCluster>(w.srcCluster));
      auto& remote = *m.clusters.back();
      remote.addNode(*m.site->remoteDtn);
      m.clusters.push_back(std::make_unique<dtn::DtnCluster>(w.dstCluster));
      auto& pool = *m.clusters.back();
      for (auto* node : m.site->dtns) pool.addNode(*node);
      m.campaigns.push_back(std::make_unique<dtn::TransferCampaign>(remote, pool, port));
      auto& campaign = *m.campaigns.back();
      for (int i = 0; i < w.files; ++i) {
        campaign.enqueue({w.filePrefix + std::to_string(i) + w.fileSuffix,
                          sim::DataSize::bytes(w.fileSizeBytes)});
      }
      auto* result = &r;
      const auto prefix = p;
      campaign.onComplete = [result, prefix](const dtn::TransferCampaign::Report& report) {
        result->metrics[prefix + ".completed"] = 1.0;
        result->metrics[prefix + ".aggregate_bps"] =
            static_cast<double>(report.aggregateRate().bps());
        result->metrics[prefix + ".elapsed_s"] = report.elapsed.toSeconds();
      };
      campaign.start();
      s.runFor(sim::Duration::fromSeconds(w.timeoutS));
      if (!r.has(p + ".completed")) r.metrics[p + ".completed"] = 0.0;
      r.metrics[p + ".files_done"] = static_cast<double>(campaign.report().filesDone);
      if (m.site->parallelFs != nullptr) {
        std::size_t visible = 0;
        for (int i = 0; i < w.files; ++i) {
          if (m.site->parallelFs->available(w.filePrefix + std::to_string(i) + w.fileSuffix,
                                            s.simulator.now())) {
            ++visible;
          }
        }
        r.metrics[p + ".files_visible"] = static_cast<double>(visible);
      }
      campaign.onComplete = nullptr;
      break;
    }
    case WorkloadKind::kProbe: {
      if (!m.site || m.site->remoteDtn == nullptr || m.site->primaryDtn() == nullptr) {
        incompatible(w, spec.topology);
      }
      const auto cfg = toTcpConfig(w.tcp);
      m.flowSets.emplace_back();
      auto& set = m.flowSets.back();
      net::FlowFactory::Options options;
      options.port = port;
      options.fidelity = w.fidelity;
      auto flow = net::flowFactory(s.ctx).create(m.site->remoteDtn->host(),
                                                 m.site->primaryDtn()->host(), cfg, options);
      auto* flags = &set;
      flow->onEstablished = [flags] { flags->connected = true; };
      flow->start();
      set.flows.push_back(std::move(flow));
      s.runFor(sim::Duration::fromSeconds(w.runS));
      r.metrics[p + ".connected"] = set.connected ? 1.0 : 0.0;
      break;
    }
    case WorkloadKind::kRoce: {
      if (m.src == nullptr) incompatible(w, spec.topology);
      vc::RoceTransfer::Options options;
      options.rate = sim::DataRate::gigabitsPerSecond(w.rateGbps);
      m.roceTransfers.push_back(std::make_unique<vc::RoceTransfer>(
          *m.src, *m.dst, sim::DataSize::bytes(w.bytes), options));
      auto& transfer = *m.roceTransfers.back();
      transfer.start();
      s.runFor(sim::Duration::fromSeconds(w.timeoutS));
      r.metrics[p + ".completed"] = transfer.result().completed ? 1.0 : 0.0;
      r.metrics[p + ".goodput_bps"] = static_cast<double>(transfer.result().goodput.bps());
      r.metrics[p + ".cpu_units"] = transfer.result().cpuUnits;
      r.metrics[p + ".wasted_bytes"] =
          static_cast<double>(transfer.result().bytesWasted.byteCount());
      break;
    }
    case WorkloadKind::kBackground: {
      if (m.edgeClients.empty()) incompatible(w, spec.topology);
      apps::BackgroundProfile profile;
      profile.flowsPerSecond = w.flowsPerSecond;
      profile.fidelity = w.fidelity;
      m.backgroundTraffic.push_back(std::make_unique<apps::BackgroundTraffic>(
          s.ctx, m.edgeClients, m.edgeServers, port, profile, s.rng.fork(w.rngFork)));
      auto& traffic = *m.backgroundTraffic.back();
      traffic.start();
      s.runFor(sim::Duration::fromSeconds(w.runS));
      traffic.stop();
      s.runFor(sim::Duration::fromSeconds(w.drainS));
      r.metrics[p + ".flows_started"] = static_cast<double>(traffic.stats().flowsStarted);
      break;
    }
  }
  if (!w.label.empty()) recordDeviceMetrics(m, r, w.label + ".");
}

/// Validate the sharding gate and arm the scenario before any topology
/// construction, partitioning `graph` (the topology the builder will add).
/// Sharded execution covers the conservative subset the determinism
/// contract holds for: path and ring topologies with pure packet-TCP flow
/// workloads. Everything else is refused loudly, never degraded.
void maybeAttachShards(const ScenarioSpec& spec, int domains, const DeviceGraph& graph,
                       Scenario& s) {
  if (domains <= 0) return;
  if (spec.topology.kind != TopologyKind::kPath && spec.topology.kind != TopologyKind::kRing) {
    throw SpecError("sharded execution (domains=" + std::to_string(domains) +
                    ") supports \"path\" and \"ring\" topologies only, not \"" +
                    toString(spec.topology.kind) + "\"");
  }
  for (const auto& w : spec.workloads) {
    if (w.kind != WorkloadKind::kSteadyFlow && w.kind != WorkloadKind::kTimedFlow) {
      throw SpecError(std::string{"workload \""} + toString(w.kind) +
                      "\" cannot run sharded (only steady_flow and timed_flow)");
    }
    if (w.fidelity != net::FlowFidelity::kPacket) {
      throw SpecError("sharded execution requires packet fidelity: the fluid "
                      "engine's rate solve is global");
    }
  }
  if (net::processFidelityOverride() == net::FlowFidelity::kFluid) {
    throw SpecError("--fidelity=fluid does not compose with sharded execution");
  }
  if (profilingRequested()) {
    throw SpecError("--profile does not compose with --domains: the self-profiler "
                    "instruments one event queue; profile the unsharded run");
  }
  const sim::Duration floor =
      spec.lookaheadUs > 0
          ? sim::Duration::microseconds(static_cast<std::int64_t>(spec.lookaheadUs))
          : sim::Duration::milliseconds(1);
  attachShards(s, planShards(graph, domains, floor), spec.seed, floor);
}

}  // namespace

net::Address numberedHost(std::uint8_t a, std::uint8_t b, int i) {
  return net::Address(a, b, static_cast<std::uint8_t>(1 + i / 254),
                      static_cast<std::uint8_t>(1 + i % 254));
}

DeviceGraph deviceGraph(const TopologySpec& topology) {
  switch (topology.kind) {
    case TopologyKind::kPath: return pathGraph(topology.path);
    case TopologyKind::kRing: return ringGraph(topology.ring);
    case TopologyKind::kFanin:
    case TopologyKind::kEnterpriseEdge:
    case TopologyKind::kSite:
    case TopologyKind::kUsecase: break;
  }
  return {};
}

ScenarioResult runSpec(const ScenarioSpec& spec, sim::SweepCell& cell) {
  Scenario s(spec.seed);
  if (spec.telemetry) s.ctx.telemetry().enable();
  const DeviceGraph graph = deviceGraph(spec.topology);
  maybeAttachShards(spec, processDomainsOverride().value_or(spec.domains), graph, s);

  Materialized m;
  ScenarioResult r;
  switch (spec.topology.kind) {
    case TopologyKind::kPath: buildPath(spec.topology.path, graph, s, m); break;
    case TopologyKind::kRing: buildRing(spec.topology.ring, graph, s, m); break;
    case TopologyKind::kFanin: buildFanin(spec.topology.fanin, s, m); break;
    case TopologyKind::kEnterpriseEdge: buildEnterpriseEdge(spec.topology.edge, s, m); break;
    case TopologyKind::kSite: buildSite(spec.topology.site, s, m); break;
    case TopologyKind::kUsecase: runUsecase(spec.topology.usecase, s, r); break;
  }

  // A campaign takes one lane port per pool node from its port up; the
  // pool is known only now, so its port block is checked here, before any
  // flow is built.
  for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
    if (spec.workloads[i].kind == WorkloadKind::kCampaign && m.site) {
      checkPortBlock(i, "port", spec.workloads[i].port,
                     std::max<std::size_t>(m.site->dtns.size(), 1));
    }
  }
  runAnalysis(spec, s, m, r);
  for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
    const auto& w = spec.workloads[i];
    const std::string p = w.label.empty() ? numberedName("w", i) : w.label;
    runWorkload(w, p, spec, s, m, r);
  }

  recordDeviceMetrics(m, r, "");
  for (std::size_t k = 0; k < m.links.size(); ++k) {
    const auto stats = m.links[k]->stats(0);
    r.metrics["seg" + std::to_string(k) + ".delivered"] = static_cast<double>(stats.delivered);
    r.metrics["seg" + std::to_string(k) + ".lost"] = static_cast<double>(stats.lost);
  }
  finishCell(s, cell);
  return r;
}

}  // namespace scidmz::scenario
