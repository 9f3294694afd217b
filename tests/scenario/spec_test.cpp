#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "scenario/engine.hpp"
#include "scenario/json.hpp"
#include "scenario/registry.hpp"
#include "sim/sweep.hpp"

namespace scidmz::scenario {
namespace {

/// Every spec the catalog registers survives parse(serialize(parse(x)))
/// with byte-identical output — the property `scidmz_run --dump` and
/// ad-hoc `--spec` files rely on.
TEST(ScenarioSpec, CatalogRoundTripsByteIdentical) {
  std::size_t cells = 0;
  for (const auto& entry : ScenarioRegistry::builtin().entries()) {
    if (!entry.specs) continue;  // native entries have no spec form
    for (const auto& spec : entry.specs()) {
      const std::string once = spec.toJson().dump();
      const auto reparsed = ScenarioSpec::parse(once);
      EXPECT_EQ(reparsed.toJson().dump(), once) << entry.name << " / " << spec.name;
      ++cells;
    }
  }
  EXPECT_GT(cells, 100u);  // the catalog is not accidentally empty
}

/// Every entry but fig2's perfSONAR mesh has a spec form.
TEST(ScenarioSpec, OnlyFig2IsNative) {
  for (const auto& entry : ScenarioRegistry::builtin().entries()) {
    EXPECT_EQ(entry.native != nullptr, entry.name == "fig2_dashboard_mesh") << entry.name;
  }
}

TEST(ScenarioSpec, PrettyFormAlsoRoundTrips) {
  const auto specs = ScenarioRegistry::builtin().find("fig1_tcp_loss_rtt")->specs();
  ASSERT_FALSE(specs.empty());
  const std::string compact = specs[0].toJson().dump();
  EXPECT_EQ(ScenarioSpec::parse(specs[0].toJson().pretty()).toJson().dump(), compact);
}

TEST(ScenarioSpec, DefaultSpecRoundTrips) {
  ScenarioSpec spec;
  spec.name = "defaults";
  const std::string once = spec.toJson().dump();
  EXPECT_EQ(ScenarioSpec::parse(once).toJson().dump(), once);
}

TEST(ScenarioSpec, UnknownKeyErrorNamesTheKey) {
  ScenarioSpec spec;
  spec.name = "bad";
  Json doc = spec.toJson();
  doc["topology"]["path"]["link"].set("rateMbps", 100);
  try {
    ScenarioSpec::fromJson(doc);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key \"rateMbps\""), std::string::npos) << what;
    EXPECT_NE(what.find("topology.path.link"), std::string::npos) << what;
  }
}

TEST(ScenarioSpec, BadEnumErrorNamesValueAndKey) {
  ScenarioSpec spec;
  spec.name = "bad";
  WorkloadSpec w;
  spec.workloads.push_back(w);
  Json doc = spec.toJson();
  // Array elements are const through the public API; rebuild the workload
  // entry with the bad enum instead.
  Json bad = doc["workloads"].at(0);
  bad["tcp"].set("cc", "vegas");
  doc.set("workloads", Json::array());
  doc["workloads"].push(std::move(bad));
  try {
    ScenarioSpec::fromJson(doc);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown value \"vegas\""), std::string::npos) << what;
    EXPECT_NE(what.find("cc"), std::string::npos) << what;
  }
}

TEST(ScenarioSpec, WrongSchemaIsRejected) {
  ScenarioSpec spec;
  spec.name = "bad";
  Json doc = spec.toJson();
  doc.set("schema", "scidmz.scenario.v0");
  try {
    ScenarioSpec::fromJson(doc);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("scidmz.scenario.v0"), std::string::npos) << e.what();
  }
}

TEST(ScenarioSpec, MissingKeyErrorNamesTheKey) {
  EXPECT_THROW(ScenarioSpec::parse("{\"schema\":\"scidmz.scenario.v2\"}"), SpecError);
  try {
    ScenarioSpec::parse("{\"schema\":\"scidmz.scenario.v2\"}");
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("missing key \"name\""), std::string::npos) << e.what();
  }
}

// --- schema v2: per-workload fidelity --------------------------------------

TEST(ScenarioSpec, DefaultSpecWritesV2AndRefusesV1) {
  ScenarioSpec spec;
  spec.name = "defaults";
  spec.workloads.push_back(WorkloadSpec{});
  Json doc = spec.toJson();
  EXPECT_EQ(doc["schema"].asString(), "scidmz.scenario.v2");
  const std::string once = doc.dump();
  EXPECT_EQ(ScenarioSpec::parse(once).toJson().dump(), once);
  // v1 is no longer read: the same document under the v1 schema is refused,
  // even though it carries none of the optional keys, and the error names
  // the schema.
  doc.set("schema", "scidmz.scenario.v1");
  try {
    ScenarioSpec::fromJson(doc);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"scidmz.scenario.v1\""), std::string::npos) << what;
    EXPECT_NE(what.find("scenario.schema"), std::string::npos) << what;
  }
}

TEST(ScenarioSpec, V1DocumentRejectsFidelityKey) {
  ScenarioSpec spec;
  spec.name = "v1";
  WorkloadSpec w;
  w.fidelity = net::FlowFidelity::kFluid;
  spec.workloads.push_back(w);
  Json doc = spec.toJson();
  doc.set("schema", "scidmz.scenario.v1");  // claim v1 but keep the v2 key
  try {
    ScenarioSpec::fromJson(doc);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    // Refused at the schema, before any workload key is read.
    EXPECT_NE(std::string(e.what()).find("\"scidmz.scenario.v1\""), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSpec, FidelityRoundTripsAsSchemaV2) {
  ScenarioSpec spec;
  spec.name = "fluid";
  WorkloadSpec w;
  w.fidelity = net::FlowFidelity::kFluid;
  spec.workloads.push_back(w);
  Json doc = spec.toJson();
  EXPECT_EQ(doc["schema"].asString(), "scidmz.scenario.v2");
  const std::string once = doc.dump();
  const auto reparsed = ScenarioSpec::parse(once);
  EXPECT_EQ(reparsed.workloads.at(0).fidelity, net::FlowFidelity::kFluid);
  EXPECT_EQ(reparsed.toJson().dump(), once);
}

TEST(ScenarioSpec, FluidFlowsRoundTripsAsSchemaV2) {
  ScenarioSpec spec;
  spec.name = "mixed";
  spec.topology.kind = TopologyKind::kFanin;
  spec.topology.fanin.senders = 9;
  WorkloadSpec w;
  w.kind = WorkloadKind::kConvergingFlows;
  w.fluidFlows = 8;
  spec.workloads.push_back(w);
  Json doc = spec.toJson();
  EXPECT_EQ(doc["schema"].asString(), "scidmz.scenario.v2");
  const std::string once = doc.dump();
  const auto reparsed = ScenarioSpec::parse(once);
  EXPECT_EQ(reparsed.workloads.at(0).fluidFlows, 8);
  EXPECT_EQ(reparsed.toJson().dump(), once);
}

TEST(ScenarioSpec, BadFidelityValueIsRejected) {
  ScenarioSpec spec;
  spec.name = "bad";
  WorkloadSpec w;
  w.fidelity = net::FlowFidelity::kFluid;
  spec.workloads.push_back(w);
  Json doc = spec.toJson();
  Json bad = doc["workloads"].at(0);
  bad.set("fidelity", "plasma");
  doc.set("workloads", Json::array());
  doc["workloads"].push(std::move(bad));
  try {
    ScenarioSpec::fromJson(doc);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("plasma"), std::string::npos) << e.what();
  }
}

/// `auto` fidelity is gone: the spec reader and the --fidelity parser both
/// refuse it as an unknown value.
TEST(ScenarioSpec, AutoFidelityIsRejected) {
  EXPECT_FALSE(net::parseFlowFidelity("auto").has_value());
  ScenarioSpec spec;
  spec.name = "auto";
  WorkloadSpec w;
  w.fidelity = net::FlowFidelity::kFluid;
  spec.workloads.push_back(w);
  Json doc = spec.toJson();
  Json workload = doc["workloads"].at(0);
  workload.set("fidelity", "auto");
  doc.set("workloads", Json::array());
  doc["workloads"].push(std::move(workload));
  try {
    ScenarioSpec::fromJson(doc);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("\"auto\""), std::string::npos) << e.what();
  }
}

// --- fan-in address plan ---------------------------------------------------

/// Past 254 senders the fan-in moves on to the next /24 (10.0.2.x), so no
/// two senders share an address and every converging flow's ACKs find
/// their way back to it.
TEST(ScenarioSpec, FaninPast254SendersKeepsAddressesDistinct) {
  constexpr int kSenders = 300;
  ScenarioSpec spec;
  spec.name = "fanin300";
  spec.telemetry = true;
  spec.topology.kind = TopologyKind::kFanin;
  spec.topology.fanin.senders = kSenders;
  spec.topology.fanin.senderLink = LinkSpec{100, 5, 1500};
  spec.topology.fanin.egressLink = LinkSpec{100000, 5, 1500};
  WorkloadSpec w;
  w.kind = WorkloadKind::kConvergingFlows;
  w.warmupS = 0.02;
  w.windowS = 0.02;
  spec.workloads.push_back(w);

  sim::SweepCell cell;
  const ScenarioResult result = runSpec(spec, cell);
  EXPECT_GT(result.get("w0.delta_bits"), 0.0);

  // Sender-side connections register "tcp/tcp SRC:PORT -> 10.0.0.99:PORT/...".
  const Json snapshot = Json::parse(cell.telemetryJson);
  const Json& counters = snapshot.get("counters");
  std::set<std::string> senderAddresses;
  for (const auto& [name, value] : counters.members()) {
    const std::string prefix = "tcp/tcp ";
    if (name.rfind(prefix, 0) != 0 || name.find(" -> 10.0.0.99:") == std::string::npos) continue;
    senderAddresses.insert(name.substr(prefix.size(), name.find(':') - prefix.size()));
  }
  EXPECT_EQ(senderAddresses.size(), static_cast<std::size_t>(kSenders));
  EXPECT_EQ(senderAddresses.count("10.0.2.46"), 1u);  // sender 299

  for (int i = 0; i < kSenders; ++i) {
    // The SYN-ACK and the ACKs for this sender's data reached it.
    const std::string key = "link/agg->h" + std::to_string(i) + "/delivered";
    ASSERT_TRUE(counters.contains(key)) << key;
    EXPECT_GT(counters.get(key).asNumber(), 10.0) << key;
  }
}

/// The enterprise edge numbers its client and server hosts with the fan-in
/// rule, so 300 pairs get 600 distinct addresses, none ending in .0 or
/// .255, and the 300-pair edge builds and routes.
TEST(ScenarioSpec, EnterpriseEdgePast254PairsKeepsAddressesDistinct) {
  constexpr int kPairs = 300;
  std::set<std::uint32_t> addresses;
  for (int i = 0; i < kPairs; ++i) {
    for (const auto address : {numberedHost(198, 0, i), numberedHost(10, 20, i)}) {
      const auto hostByte = address.value() & 0xff;
      EXPECT_NE(hostByte, 0u) << address.toString();
      EXPECT_NE(hostByte, 255u) << address.toString();
      addresses.insert(address.value());
    }
  }
  EXPECT_EQ(addresses.size(), static_cast<std::size_t>(2 * kPairs));
  EXPECT_EQ(numberedHost(198, 0, 253).toString(), "198.0.1.254");  // unchanged below 254
  EXPECT_EQ(numberedHost(198, 0, 254).toString(), "198.0.2.1");
  EXPECT_EQ(numberedHost(10, 20, kMaxNumberedHosts - 1).toString(), "10.20.255.254");

  ScenarioSpec spec;
  spec.name = "edge300";
  spec.topology.kind = TopologyKind::kEnterpriseEdge;
  spec.topology.edge.pairs = kPairs;
  WorkloadSpec w;
  w.kind = WorkloadKind::kBackground;
  w.flowsPerSecond = 200.0;
  w.runS = 1.0;
  w.drainS = 1.0;
  spec.workloads.push_back(w);
  sim::SweepCell cell;
  const ScenarioResult result = runSpec(spec, cell);
  EXPECT_GT(result.get("w0.flows_started"), 100.0);
}

/// `senders` and `pairs` must name at least one host and no more than the
/// numbering rule can address.
TEST(ScenarioSpec, HostCountsOutsideTheAddressPlanAreRejected) {
  ScenarioSpec fanin;
  fanin.name = "fanin";
  fanin.topology.kind = TopologyKind::kFanin;
  ScenarioSpec edge;
  edge.name = "edge";
  edge.topology.kind = TopologyKind::kEnterpriseEdge;
  const auto withCount = [](const ScenarioSpec& spec, const char* topology, const char* key,
                            int n) {
    Json doc = spec.toJson();
    doc["topology"][topology].set(key, n);
    return doc;
  };
  for (const int bad : {-1, 0, kMaxNumberedHosts + 1}) {
    EXPECT_THROW(ScenarioSpec::fromJson(withCount(fanin, "fanin", "senders", bad)), SpecError)
        << bad;
    EXPECT_THROW(ScenarioSpec::fromJson(withCount(edge, "enterprise_edge", "pairs", bad)),
                 SpecError)
        << bad;
  }
  EXPECT_EQ(ScenarioSpec::fromJson(withCount(fanin, "fanin", "senders", kMaxNumberedHosts))
                .topology.fanin.senders,
            kMaxNumberedHosts);
  EXPECT_EQ(ScenarioSpec::fromJson(withCount(edge, "enterprise_edge", "pairs", 1))
                .topology.edge.pairs,
            1);
}

// --- value bounds ----------------------------------------------------------

/// One spec that carries every bounded key: a path with a random and a
/// periodic loss model, and one workload of each kind whose keys are
/// bounded. Parsing checks keys and values, not whether a workload can run
/// on the topology, so one document holds them all.
Json boundedKeysDoc() {
  ScenarioSpec spec;
  spec.name = "bounds";
  LossSpec periodic;
  periodic.kind = LossKind::kPeriodic;
  periodic.period = 1000;
  spec.topology.path.losses = {LossSpec{}, periodic};
  for (const auto kind : {WorkloadKind::kSteadyFlow, WorkloadKind::kConvergingFlows,
                          WorkloadKind::kTimedFlow, WorkloadKind::kParallelTransfer,
                          WorkloadKind::kRoce, WorkloadKind::kBackground}) {
    WorkloadSpec w;
    w.kind = kind;
    spec.workloads.push_back(w);
  }
  return spec.toJson();
}

/// The member at a dotted path whose numeric segments index arrays
/// ("workloads.3.streams").
Json& memberAt(Json& doc, const std::string& path) {
  Json* node = &doc;
  std::size_t begin = 0;
  while (true) {
    const std::size_t dot = path.find('.', begin);
    const std::string segment = path.substr(begin, dot - begin);
    node = node->isArray() ? &const_cast<Json&>(node->at(std::stoul(segment)))
                           : &(*node)[segment];
    if (dot == std::string::npos) return *node;
    begin = dot + 1;
  }
}

/// Values that crashed a run (an uncaught exception, SIGFPE, a float-to-int
/// overflow) or quietly ran something else: each is refused at parse time
/// with a SpecError naming the key path and the bound.
TEST(ScenarioSpec, OutOfBoundsValuesAreRefusedNamingTheKey) {
  const Json path = boundedKeysDoc();
  ScenarioSpec siteSpec;
  siteSpec.name = "site";
  siteSpec.topology.kind = TopologyKind::kSite;
  WorkloadSpec campaign;
  campaign.kind = WorkloadKind::kCampaign;
  siteSpec.workloads.push_back(campaign);
  const Json site = siteSpec.toJson();
  ScenarioSpec ringSpec;
  ringSpec.name = "ring";
  ringSpec.topology.kind = TopologyKind::kRing;
  WorkloadSpec streams;
  streams.kind = WorkloadKind::kTimedFlow;
  streams.streams = 2;
  ringSpec.workloads.push_back(streams);
  const Json ring = ringSpec.toJson();
  struct Case {
    const Json* doc;
    const char* path;
    Json value;
    const char* bound;  ///< the error reads "<key path>" must be <bound>
  };
  const Case cases[] = {
      {&path, "topology.path.src.ip", "10.0.0", "a dotted quad, got \"10.0.0\""},
      {&path, "topology.path.dst.ip", "10.0.0.256", "a dotted quad"},
      {&path, "topology.path.link.rate_mbps", 0, "between 1 and 1000000, got 0"},
      {&path, "topology.path.link.mtu_bytes", 40, "between 68 and 65535, got 40"},
      {&path, "topology.path.link.mtu_bytes", 10, "between 68 and 65535, got 10"},
      {&path, "topology.path.link.delay_us", 1e13, "between 0 and 1000000000000"},
      {&path, "topology.path.losses.0.direction", 2, "between 0 and 1, got 2"},
      {&path, "topology.path.losses.0.direction", -1, "between 0 and 1, got -1"},
      {&path, "topology.path.losses.0.rate", 1.5, "between 0 and 1, got 1.5"},
      {&path, "topology.path.losses.1.period", 0, "between 1 and"},
      {&path, "workloads.0.warmup_s", -3, "between 0 and 1000000, got -3"},
      {&path, "workloads.0.window_s", 1e300, "between 0 and 1000000, got 1e+300"},
      {&path, "workloads.0.port", 70000, "between 1 and 65535, got 70000"},
      {&path, "workloads.0.port", 0, "between 1 and 65535, got 0"},
      {&path, "workloads.1.base_port", 70000, "between 1 and 65535"},
      {&path, "workloads.2.run_s", -1, "between 0 and 1000000"},
      {&path, "workloads.3.streams", 0, "between 1 and 65535"},
      {&path, "workloads.3.timeout_s", 1e10, "between 0 and 1000000"},
      {&path, "workloads.4.rate_gbps", 0, "between 1 and 1000"},
      {&path, "workloads.5.flows_per_second", 0, "between 1e-06 and 1000000"},
      {&path, "workloads.5.flows_per_second", -5, "between 1e-06 and 1000000"},
      {&path, "workloads.5.drain_s", -0.5, "between 0 and 1000000"},
      {&path, "workloads.5.base_port", 65536, "between 1 and 65024"},
      {&site, "topology.site.dtn_count", 0, "between 1 and 240"},
      {&site, "topology.site.dtn_count", 241, "between 1 and 240"},
      {&site, "topology.site.compute_node_count", -1, "between 0 and 254"},
      {&site, "workloads.0.files", -1, "between 0 and"},
      {&ring, "topology.ring.sites", 1, "between 2 and 250, got 1"},
      {&ring, "topology.ring.sites", 251, "between 2 and 250, got 251"},
      {&ring, "topology.ring.hosts_per_site", 0, "between 1 and 62500, got 0"},
      {&ring, "topology.ring.hosts_per_site", 62501, "between 1 and 62500, got 62501"},
      {&ring, "topology.ring.wan", Json::array(), "an array of 1 or more items, got 0"},
      {&ring, "topology.ring.wan.2.delay_us", 1e13, "between 0 and 1000000000000"},
      {&ring, "workloads.0.streams", 0, "between 1 and 65535, got 0"},
      {&ring, "workloads.0.port", 65535, "at most 65534 for 2 ports, got 65535"},
  };
  ASSERT_NO_THROW(ScenarioSpec::fromJson(path));
  ASSERT_NO_THROW(ScenarioSpec::fromJson(site));
  ASSERT_NO_THROW(ScenarioSpec::fromJson(ring));
  for (const auto& c : cases) {
    Json doc = *c.doc;
    Json& member = memberAt(doc, c.path);
    ASSERT_EQ(member.kind(), c.value.kind()) << c.path << " is not in the document";
    member = c.value;
    // "workloads.3.streams" is named "workloads[3].streams" in errors.
    std::string keyPath;
    std::istringstream parts(c.path);
    for (std::string part; std::getline(parts, part, '.');) {
      if (part.find_first_not_of("0123456789") == std::string::npos) {
        keyPath += '[';
        keyPath += part;
        keyPath += ']';
      } else {
        if (!keyPath.empty()) keyPath += '.';
        keyPath += part;
      }
    }
    const std::string expected = "\"" + keyPath + "\" must be " + c.bound;
    try {
      ScenarioSpec::fromJson(doc);
      ADD_FAILURE() << c.path << " = " << c.value.dump() << " was accepted";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << expected << " not in: " << e.what();
    }
  }
}

/// Zero durations stay legal: the benchmark's setup-only copies of its
/// cells set every *_s to 0.
TEST(ScenarioSpec, ZeroDurationsStillParse) {
  Json doc = boundedKeysDoc();
  for (const char* path : {"workloads.0.warmup_s", "workloads.0.window_s", "workloads.2.run_s",
                           "workloads.3.timeout_s", "workloads.5.run_s", "workloads.5.drain_s"}) {
    memberAt(doc, path) = 0;
  }
  const std::string once = ScenarioSpec::fromJson(doc).toJson().dump();
  EXPECT_EQ(once, doc.dump());
  EXPECT_EQ(ScenarioSpec::parse(once).toJson().dump(), once);
}

/// A converging fan-in takes one port per sender from base_port up, and
/// background traffic a block of 512: a base port whose block passes 65535
/// (its later flows would wrap to port 0, 1, ...) is refused at parse
/// time, and the highest base port that fits runs.
TEST(ScenarioSpec, PortBlocksPastTheLastPortAreRefusedAtParse) {
  ScenarioSpec fanin;
  fanin.name = "fanin_ports";
  fanin.topology.kind = TopologyKind::kFanin;
  fanin.topology.fanin.senders = 3;
  WorkloadSpec converging;
  converging.kind = WorkloadKind::kConvergingFlows;
  converging.warmupS = 0;
  converging.windowS = 0;
  fanin.workloads.push_back(converging);

  ScenarioSpec edge;
  edge.name = "edge_ports";
  edge.topology.kind = TopologyKind::kEnterpriseEdge;
  WorkloadSpec background;
  background.kind = WorkloadKind::kBackground;
  background.runS = 0;
  background.drainS = 0;
  edge.workloads.push_back(background);

  struct Case {
    ScenarioSpec* spec;
    int refused;
    const char* error;
    int runs;
  };
  const Case cases[] = {
      {&fanin, 65534, "\"workloads[0].base_port\" must be at most 65533 for 3 ports, got 65534",
       65533},
      {&edge, 65025, "\"workloads[0].base_port\" must be between 1 and 65024, got 65025", 65024},
  };
  for (const auto& c : cases) {
    c.spec->workloads[0].port = c.refused;
    try {
      ScenarioSpec::parse(c.spec->toJson().dump());
      ADD_FAILURE() << c.spec->name << " at base_port " << c.refused << " was accepted";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos)
          << c.error << " not in: " << e.what();
    }
    c.spec->workloads[0].port = c.runs;
    const ScenarioSpec parsed = ScenarioSpec::parse(c.spec->toJson().dump());
    sim::SweepCell cell;
    EXPECT_NO_THROW(runSpec(parsed, cell)) << c.spec->name;
  }
}

/// A campaign takes one lane port per pool DTN from its port up. The pool
/// is built by the engine, so the engine refuses a block past 65535 before
/// any flow starts, naming the key.
TEST(ScenarioSpec, CampaignLanePortsPastTheLastPortAreRefusedByTheEngine) {
  ScenarioSpec spec;
  spec.name = "campaign_ports";
  spec.topology.kind = TopologyKind::kSite;
  spec.topology.site.design = SiteDesign::kSupercomputer;
  spec.topology.site.dtnCount = 4;
  WorkloadSpec w;
  w.kind = WorkloadKind::kCampaign;
  w.srcCluster = "experiment";
  w.dstCluster = "center";
  w.port = 65533;
  w.files = 0;
  w.timeoutS = 0;
  spec.workloads.push_back(w);
  ASSERT_NO_THROW(ScenarioSpec::parse(spec.toJson().dump()));
  try {
    sim::SweepCell cell;
    runSpec(spec, cell);
    ADD_FAILURE() << "4 lanes from port 65533 were accepted";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "\"workloads[0].port\" must be at most 65532 for 4 ports, got 65533"),
              std::string::npos)
        << e.what();
  }
  spec.workloads[0].port = 65532;
  sim::SweepCell cell;
  EXPECT_NO_THROW(runSpec(spec, cell));
}

// --- the JSON layer under the spec ----------------------------------------

TEST(Json, ParseRejectsTrailingGarbage) {
  EXPECT_THROW(Json::parse("{} x"), JsonError);
  EXPECT_THROW(Json::parse(""), JsonError);
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    Json::parse("{\n  \"a\": nope\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(Json, NestingPastTheBoundIsRefusedWithoutACrash) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  // 200,000 open brackets used to recurse until the stack overflowed.
  try {
    Json::parse(std::string(200000, '['));
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("line 1, column " + std::to_string(Json::kMaxDepth + 1)),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Json::parse(nested(Json::kMaxDepth + 1)), SpecError);
  EXPECT_THROW(Json::parse("{\"a\":\n" + nested(Json::kMaxDepth) + "}"), SpecError);
  // At the bound, arrays and objects alike still parse.
  Json deepest = Json::parse(nested(Json::kMaxDepth));
  EXPECT_EQ(deepest.dump(), nested(Json::kMaxDepth));
  std::string objects;
  for (int i = 0; i < Json::kMaxDepth; ++i) objects += "{\"k\":";
  objects += "1" + std::string(static_cast<std::size_t>(Json::kMaxDepth), '}');
  EXPECT_EQ(Json::parse(objects).dump(), objects);
}

TEST(Json, DumpIsDeterministicAndOrdered) {
  Json obj = Json::object();
  obj.set("z", 1);
  obj.set("a", 2.5);
  obj.set("m", "text");
  EXPECT_EQ(obj.dump(), "{\"z\":1,\"a\":2.5,\"m\":\"text\"}");  // insertion order kept
  EXPECT_EQ(Json::parse(obj.dump()).dump(), obj.dump());
}

TEST(Json, StringEscapesRoundTrip) {
  Json obj = Json::object();
  obj.set("s", std::string("tab\t quote\" back\\ nl\n"));
  EXPECT_EQ(Json::parse(obj.dump()).dump(), obj.dump());
  EXPECT_EQ(Json::parse(obj.dump())["s"].asString(), "tab\t quote\" back\\ nl\n");
}

}  // namespace
}  // namespace scidmz::scenario
