// Shared scaffolding for net/tcp tests: one deterministic scenario
// (simulator + rng + topology) per test.
#pragma once

#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace scidmz::testutil {

struct Scenario {
  sim::Simulator simulator;
  sim::Rng rng{12345};
  net::Context ctx{simulator, rng};
  net::Topology topo{ctx};
};

}  // namespace scidmz::testutil
