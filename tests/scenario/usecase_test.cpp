// The Section 6 use cases, run as the catalog runs them: each test takes
// the catalog's specs for one entry and drives its cells through runSpec.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "scenario/engine.hpp"
#include "scenario/json.hpp"
#include "scenario/registry.hpp"
#include "sim/sweep.hpp"
#include "tcp/mathis.hpp"

namespace scidmz::scenario {
namespace {

using namespace scidmz::sim::literals;

const char* const kUsecaseEntries[] = {"usecase_colorado_fanin", "usecase_pennstate_firewall",
                                       "usecase_noaa_transfer", "usecase_nersc_olcf"};

std::vector<ScenarioSpec> catalogSpecs(const std::string& entry) {
  const auto* found = ScenarioRegistry::builtin().find(entry);
  EXPECT_NE(found, nullptr) << entry;
  return found == nullptr ? std::vector<ScenarioSpec>{} : found->specs();
}

struct UsecaseCell {
  ScenarioResult result;
  sim::SweepCell cell;
};

/// Cell `index` of a catalog use-case entry, run once per process and
/// shared: the cells are deterministic and some take seconds.
const UsecaseCell& catalogCell(const std::string& entry, std::size_t index) {
  static std::map<std::pair<std::string, std::size_t>, UsecaseCell> cache;
  const auto key = std::make_pair(entry, index);
  auto it = cache.find(key);
  if (it == cache.end()) {
    UsecaseCell run;
    run.result = runSpec(catalogSpecs(entry).at(index), run.cell);
    it = cache.emplace(key, std::move(run)).first;
  }
  return it->second;
}

const ScenarioResult& catalogResult(const std::string& entry, std::size_t index) {
  return catalogCell(entry, index).result;
}

// --- Section 6.1: Colorado -------------------------------------------------

/// The five-host cells of usecase_colorado_fanin (hosts 2, 5, 8 x fix).
const ScenarioResult& colorado(bool vendorFix) {
  return catalogResult("usecase_colorado_fanin", vendorFix ? 3 : 2);
}

std::vector<double> perHostMbps(const ScenarioResult& r) {
  std::vector<double> mbps;
  for (int i = 0; r.has("colorado.host" + std::to_string(i) + "_mbps"); ++i) {
    mbps.push_back(r.at("colorado.host" + std::to_string(i) + "_mbps"));
  }
  return mbps;
}

TEST(Colorado, DefectCollapsesDownloads) {
  const auto& result = colorado(false);
  EXPECT_NE(result.at("colorado.latched"), 0.0);
  EXPECT_GT(result.at("colorado.switch_drops"), 0.0);
  // Well below the ~5 Gbps the group's aggregate demand represents.
  EXPECT_LT(result.at("colorado.aggregate_mbps"), 2500.0);
}

TEST(Colorado, VendorFixRestoresLineRatePerHost) {
  const auto& result = colorado(true);
  // The fallback to store-and-forward still happens; it is just loss-free.
  EXPECT_NE(result.at("colorado.latched"), 0.0);
  EXPECT_EQ(result.at("colorado.switch_drops"), 0.0);
  // "performance returned to near line rate for each member".
  EXPECT_GT(result.at("colorado.worst_mbps"), 800.0);
  EXPECT_GT(result.at("colorado.aggregate_mbps"), 4000.0);
}

TEST(Colorado, FixImprovesEveryHost) {
  const auto& before = colorado(false);
  const auto& after = colorado(true);
  const auto beforeMbps = perHostMbps(before);
  const auto afterMbps = perHostMbps(after);
  ASSERT_EQ(beforeMbps.size(), 5u);
  ASSERT_EQ(beforeMbps.size(), afterMbps.size());
  for (std::size_t i = 0; i < beforeMbps.size(); ++i) {
    EXPECT_GT(afterMbps[i], beforeMbps[i]) << "host " << i;
  }
  EXPECT_GT(after.at("colorado.aggregate_mbps"), 2.0 * before.at("colorado.aggregate_mbps"));
}

TEST(Colorado, LightLoadNeverTripsTheDefect) {
  auto spec = catalogSpecs("usecase_colorado_fanin").at(0);
  spec.topology.usecase.physicsHosts = 1;  // a single 1G flow stays under the 2G threshold
  spec.topology.usecase.vendorFix = false;
  sim::SweepCell cell;
  const auto result = runSpec(spec, cell);
  EXPECT_EQ(result.at("colorado.latched"), 0.0);
  EXPECT_GT(result.at("colorado.worst_mbps"), 800.0);
}

// --- Section 6.2: Penn State -----------------------------------------------

/// usecase_pennstate_firewall's cells: inbound and outbound with sequence
/// checking on, the same after disabling it, then the Figure 8 series.
enum PennStateCell : std::size_t { kInBefore, kOutBefore, kInAfter, kOutAfter };

const ScenarioResult& pennstate(PennStateCell cell) {
  return catalogResult("usecase_pennstate_firewall", cell);
}

double pennstateMbps(PennStateCell cell) { return pennstate(cell).at("pennstate.mbps"); }

TEST(PennState, Equation2Window) {
  // 1 Gbps x 10 ms = 1.25 MB, "20 times" the 64 KB default.
  const auto window = tcp::bandwidthDelayWindow(1_Gbps, 10_ms);
  EXPECT_EQ(window.byteCount(), 1'250'000u);
  EXPECT_NEAR(static_cast<double>(window.byteCount()) / 65536.0, 19.1, 0.1);
}

TEST(PennState, SequenceCheckingCapsBothDirectionsNear50Mbps) {
  // Paper: "hosts connected by 1Gbps local connections were limited to
  // around 50Mbps overall; this observation was true in either direction".
  EXPECT_GT(pennstateMbps(kInBefore), 30.0);
  EXPECT_LT(pennstateMbps(kInBefore), 65.0);
  EXPECT_GT(pennstateMbps(kOutBefore), 30.0);
  EXPECT_LT(pennstateMbps(kOutBefore), 65.0);
  EXPECT_EQ(pennstate(kInBefore).at("pennstate.window_scaling"), 0.0);
  EXPECT_EQ(pennstate(kOutBefore).at("pennstate.window_scaling"), 0.0);
}

TEST(PennState, WindowStuckAt64KDespiteAutoTuning) {
  // "the size of the TCP window was not growing beyond the default value
  // of 64KB, despite ... auto-tuning".
  EXPECT_LE(pennstate(kInBefore).at("pennstate.peak_window"), 65535.0);
  EXPECT_GT(pennstate(kInBefore).at("pennstate.peak_window"), 0.0);
  // After the fix, the window grows far past 64 KB.
  EXPECT_GT(pennstate(kInAfter).at("pennstate.peak_window"), 1'000'000.0);
  EXPECT_NE(pennstate(kInAfter).at("pennstate.window_scaling"), 0.0);
}

TEST(PennState, DisablingTheFeatureMultipliesThroughput) {
  // Paper: inbound ~5x, outbound ~12x. Our symmetric model yields large
  // speedups in both directions; require at least the inbound factor.
  EXPECT_GT(pennstateMbps(kInAfter) / pennstateMbps(kInBefore), 5.0);
  EXPECT_GT(pennstateMbps(kOutAfter) / pennstateMbps(kOutBefore), 5.0);
  // After the fix both directions approach the 1G access rate.
  EXPECT_GT(pennstateMbps(kInAfter), 700.0);
  EXPECT_GT(pennstateMbps(kOutAfter), 700.0);
}

// --- Section 6.3: NOAA -----------------------------------------------------

double noaaLegacyMBps() {
  return catalogResult("usecase_noaa_transfer", 0).at("noaa.legacy_MBps");
}
const ScenarioResult& noaaDmz() { return catalogResult("usecase_noaa_transfer", 1); }

TEST(Noaa, LegacyPathTricklesAtFtpSpeeds) {
  // Paper: "data trickled in at about 1-2 MB/s".
  EXPECT_GT(noaaLegacyMBps(), 0.5);
  EXPECT_LT(noaaLegacyMBps(), 3.0);
}

TEST(Noaa, DmzPathReachesHundredsOfMBps) {
  // Paper: "approximately 395 MB/s".
  EXPECT_GT(noaaDmz().at("noaa.dmz_MBps"), 250.0);
  EXPECT_LT(noaaDmz().at("noaa.dmz_MBps"), 550.0);
}

TEST(Noaa, SpeedupIsAboutTwoHundredFold) {
  // Paper: "a throughput increase of nearly 200 times".
  const double legacy = noaaLegacyMBps();
  const double speedup = legacy > 0 ? noaaDmz().at("noaa.dmz_MBps") / legacy : 0.0;
  EXPECT_GT(speedup, 100.0);
  EXPECT_LT(speedup, 500.0);
}

TEST(Noaa, BatchLandsInTensOfMinutes) {
  // Paper: 239.5 GB "in just over 10 minutes".
  const double minutes = noaaDmz().at("noaa.batch_s") / 60.0;
  EXPECT_GT(minutes, 5.0);
  EXPECT_LT(minutes, 25.0);
}

// --- Section 6.4: NERSC <-> OLCF -------------------------------------------

const ScenarioResult& nerscBefore() { return catalogResult("usecase_nersc_olcf", 0); }
const ScenarioResult& nerscAfter() { return catalogResult("usecase_nersc_olcf", 1); }

TEST(NerscOlcf, BeforeASingleFileTakesMoreThanAWorkday) {
  // Paper: "waited more than an entire workday for a single 33 GB input
  // file".
  EXPECT_GT(nerscBefore().at("nersc.file_before_s"), 8.0 * 3600.0);
}

TEST(NerscOlcf, AfterRatesReachTwoHundredMBps) {
  // Paper: "immediately able to improve their transfer rate to 200 MB/sec".
  EXPECT_GT(nerscAfter().at("nersc.after_MBps"), 150.0);
  EXPECT_LT(nerscAfter().at("nersc.after_MBps"), 280.0);
}

TEST(NerscOlcf, ImprovementAtLeastTwentyFold) {
  // Paper: "WAN transfers ... increased by at least a factor of 20".
  const double before = nerscBefore().at("nersc.before_MBps");
  const double speedup = before > 0 ? nerscAfter().at("nersc.after_MBps") / before : 0.0;
  EXPECT_GT(speedup, 20.0);
}

TEST(NerscOlcf, CampaignFinishesInUnderThreeDays) {
  // Paper: "move all 40 TB ... in less than three days".
  const double days = nerscAfter().at("nersc.campaign_after_s") / 86400.0;
  EXPECT_GT(days, 1.0);
  EXPECT_LT(days, 3.0);
}

TEST(NerscOlcf, SingleFileNowMinutes) {
  EXPECT_LT(nerscAfter().at("nersc.file_after_s"), 15.0 * 60.0);
}

// --- every use-case cell is an ordinary sweep cell -------------------------

TEST(UsecaseCells, EveryCellExecutesEvents) {
  for (const char* entry : kUsecaseEntries) {
    const std::size_t cells = catalogSpecs(entry).size();
    EXPECT_GT(cells, 0u) << entry;
    for (std::size_t i = 0; i < cells; ++i) {
      EXPECT_GT(catalogCell(entry, i).cell.eventsExecuted, 0u) << entry << " #" << i;
    }
  }
}

TEST(UsecaseCells, TelemetrySpecGivesEveryCellASnapshot) {
  for (const char* entry : kUsecaseEntries) {
    for (auto spec : catalogSpecs(entry)) {
      spec.telemetry = true;
      sim::SweepCell cell;
      (void)runSpec(spec, cell);
      ASSERT_FALSE(cell.telemetryJson.empty()) << spec.name;
      EXPECT_TRUE(Json::parse(cell.telemetryJson).contains("counters")) << spec.name;
    }
  }
}

TEST(UsecaseCells, ShardedExecutionIsRefused) {
  for (const char* entry : kUsecaseEntries) {
    auto spec = catalogSpecs(entry).at(0);
    spec.domains = 2;
    sim::SweepCell cell;
    EXPECT_THROW((void)runSpec(spec, cell), SpecError) << entry;
  }
}

TEST(UsecaseCells, UnknownSimulationIsRejected) {
  const auto spec = catalogSpecs("usecase_pennstate_firewall").at(0);
  Json doc = spec.toJson();
  // One name per simulation, not per catalog entry.
  doc["topology"]["usecase"].set("which", "pennstate");
  try {
    (void)ScenarioSpec::fromJson(doc);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("pennstate"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace scidmz::scenario
