#include "dtn/dtn_cluster.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "../net/test_util.hpp"

namespace scidmz::dtn {
namespace {

using namespace scidmz::sim::literals;
using testutil::Scenario;

/// Two sites, each with `n` DTNs behind a site switch, joined by a fat WAN
/// link — a miniature LHC Tier-1 pair.
struct ClusterPair {
  ClusterPair(Scenario& s, int n)
      : srcCluster("tier1-src"), dstCluster("tier1-dst") {
    auto& swA = s.topo.addSwitch("swA");
    auto& swB = s.topo.addSwitch("swB");
    net::LinkParams wan;
    wan.rate = 100_Gbps;
    wan.delay = 20_ms;
    wan.mtu = 9000_B;
    s.topo.connect(swA, swB, wan);
    net::LinkParams lan;
    lan.rate = 10_Gbps;
    lan.delay = sim::Duration::microseconds(50);
    lan.mtu = 9000_B;
    for (int i = 0; i < n; ++i) {
      auto& hostA = s.topo.addHost("dtnA" + std::to_string(i),
                                   net::Address(10, 0, 1, static_cast<std::uint8_t>(i + 1)));
      auto& hostB = s.topo.addHost("dtnB" + std::to_string(i),
                                   net::Address(10, 0, 2, static_cast<std::uint8_t>(i + 1)));
      s.topo.connect(hostA, swA, lan);
      s.topo.connect(hostB, swB, lan);
      storages.push_back(
          std::make_unique<StorageSubsystem>(s.ctx, StorageProfile::parallelFsBackend()));
      storages.push_back(
          std::make_unique<StorageSubsystem>(s.ctx, StorageProfile::parallelFsBackend()));
      nodes.push_back(std::make_unique<DataTransferNode>(hostA, *storages[storages.size() - 2]));
      nodes.push_back(std::make_unique<DataTransferNode>(hostB, *storages[storages.size() - 1]));
      srcCluster.addNode(*nodes[nodes.size() - 2]);
      dstCluster.addNode(*nodes[nodes.size() - 1]);
    }
    s.topo.computeRoutes();
  }
  DtnCluster srcCluster;
  DtnCluster dstCluster;
  std::vector<std::unique_ptr<StorageSubsystem>> storages;
  std::vector<std::unique_ptr<DataTransferNode>> nodes;
};

TEST(Cluster, CampaignMovesAllFiles) {
  Scenario s;
  ClusterPair pair{s, 2};
  TransferCampaign campaign{pair.srcCluster, pair.dstCluster};
  for (int i = 0; i < 6; ++i) {
    campaign.enqueue({"file" + std::to_string(i), 200_MB});
  }
  TransferCampaign::Report final;
  bool done = false;
  campaign.onComplete = [&](const TransferCampaign::Report& r) {
    final = r;
    done = true;
  };
  campaign.start();
  s.simulator.runFor(600_s);

  ASSERT_TRUE(done);
  EXPECT_EQ(final.filesDone, 6u);
  EXPECT_EQ(final.bytesMoved, sim::DataSize::megabytes(1200));
  EXPECT_GT(final.aggregateRate().toMbps(), 100.0);
}

TEST(Cluster, MoreNodesMoveTheCampaignFaster) {
  auto run = [](int nodesPerSite) {
    Scenario s;
    ClusterPair pair{s, nodesPerSite};
    TransferCampaign campaign{pair.srcCluster, pair.dstCluster};
    for (int i = 0; i < 8; ++i) {
      campaign.enqueue({std::string("f").append(std::to_string(i)), 400_MB});
    }
    bool done = false;
    sim::SimTime doneAt;
    campaign.onComplete = [&](const TransferCampaign::Report&) {
      done = true;
      doneAt = s.simulator.now();
    };
    campaign.start();
    s.simulator.runFor(3600_s);
    EXPECT_TRUE(done);
    return doneAt.toSeconds();
  };
  const double oneLane = run(1);
  const double fourLanes = run(4);
  EXPECT_LT(fourLanes, oneLane * 0.5);
}

TEST(Cluster, EmptyCampaignCompletesImmediately) {
  Scenario s;
  ClusterPair pair{s, 1};
  TransferCampaign campaign{pair.srcCluster, pair.dstCluster};
  bool done = false;
  campaign.onComplete = [&done](const TransferCampaign::Report& r) {
    done = true;
    EXPECT_EQ(r.filesTotal, 0u);
  };
  campaign.start();
  s.simulator.runFor(1_s);
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace scidmz::dtn
