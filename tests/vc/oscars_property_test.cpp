// Property test: under a random mix of reservation requests and releases,
// the bandwidth calendar never oversubscribes any link at any instant.
#include <gtest/gtest.h>

#include <vector>

#include "../net/test_util.hpp"
#include "net/host.hpp"
#include "vc/oscars.hpp"

namespace scidmz::vc {
namespace {

using namespace scidmz::sim::literals;
using testutil::Scenario;

sim::SimTime at(std::int64_t seconds) {
  return sim::SimTime::zero() + sim::Duration::seconds(seconds);
}

class OscarsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OscarsFuzz, NeverOversubscribesAnyLink) {
  Scenario s;
  // Dumbbell: 4 hosts per side around a constrained core link.
  auto& left = s.topo.addSwitch("left");
  auto& right = s.topo.addSwitch("right");
  net::LinkParams core;
  core.rate = 10_Gbps;
  s.topo.connect(left, right, core);
  std::vector<net::Host*> hosts;
  net::LinkParams edge;
  edge.rate = 10_Gbps;
  for (int i = 0; i < 4; ++i) {
    auto& hl = s.topo.addHost(std::string("l").append(std::to_string(i)),
                              net::Address(10, 0, 1, static_cast<std::uint8_t>(i + 1)));
    s.topo.connect(hl, left, edge);
    hosts.push_back(&hl);
    auto& hr = s.topo.addHost(std::string("r").append(std::to_string(i)),
                              net::Address(10, 0, 2, static_cast<std::uint8_t>(i + 1)));
    s.topo.connect(hr, right, edge);
    hosts.push_back(&hr);
  }
  s.topo.computeRoutes();

  OscarsService oscars{s.topo, 0.9};
  sim::Rng rng{GetParam()};
  std::vector<ReservationId> live;

  for (int step = 0; step < 400; ++step) {
    if (!live.empty() && rng.chance(0.3)) {
      const auto idx = rng.below(live.size());
      oscars.release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      auto* a = hosts[rng.below(hosts.size())];
      auto* b = hosts[rng.below(hosts.size())];
      if (a == b) continue;
      const auto start = at(static_cast<std::int64_t>(rng.below(200)));
      const auto end = start + sim::Duration::seconds(1 + static_cast<std::int64_t>(rng.below(100)));
      const auto bw = sim::DataRate::megabitsPerSecond(100 + rng.below(4000));
      const auto id = oscars.reserve(a->address(), b->address(), bw, start, end);
      if (id) live.push_back(*id);
    }

    // Invariant: at a sample of instants, no link is oversubscribed.
    for (const auto& link : s.topo.links()) {
      for (const std::int64_t t : {0, 50, 100, 150, 250}) {
        const auto reserved = oscars.reservedOn(*link, at(t));
        const auto cap = static_cast<double>(link->rate().bps()) * 0.9;
        ASSERT_LE(static_cast<double>(reserved.bps()), cap + 1.0)
            << "link oversubscribed at t=" << t << " step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OscarsFuzz, ::testing::Values(1u, 7u, 1234u, 987654321u));

}  // namespace
}  // namespace scidmz::vc
