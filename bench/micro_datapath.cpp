// Per-packet data-path microbenchmarks (google-benchmark): pooled packets
// moving through the ring-buffer egress queue, the compiled FIB with its
// flow cache, and the composite per-hop path that combines them.
// BM_DatapathHop is the headline packets/sec figure for the forwarding hot
// path.
//
// After the microbenchmarks, main() runs a fixed end-to-end forwarding
// workload (probe bursts through switch chains of increasing length) under
// the SweepRunner, so BENCH_sim.json gains packets_forwarded /
// packets_per_second entries CI can track run over run.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "net/device.hpp"
#include "net/host.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "net/topology.hpp"
#include "scenario/bench_io.hpp"
#include "scenario/harness.hpp"
#include "sim/sweep.hpp"

using namespace scidmz;
using namespace scidmz::sim::literals;

namespace {

net::PacketRef pooledPacket(net::PacketPool& pool, net::Address dst) {
  net::PacketRef p = pool.acquire();
  p->flow = net::FlowKey{net::Address(10, 0, 0, 250), dst, 33000, 5001, net::Protocol::kTcp};
  p->body = net::TcpHeader{};
  p->payload = sim::DataSize::bytes(1460);
  return p;
}

/// A realistic mid-size RIB: a rack of /32 host routes over a handful of
/// aggregate prefixes, as computeRoutes() installs for the usecase sites.
void installBenchRoutes(net::Device& dev) {
  for (int i = 1; i <= 48; ++i) {
    dev.addRoute(net::Prefix{net::Address(10, 0, 0, static_cast<std::uint8_t>(i)), 32}, i % 8);
  }
  dev.addRoute(net::Prefix{net::Address(10, 1, 0, 0), 16}, 1);
  dev.addRoute(net::Prefix{net::Address(10, 2, 0, 0), 16}, 2);
  dev.addRoute(net::Prefix{net::Address(172, 16, 0, 0), 12}, 3);
  dev.addRoute(net::Prefix{net::Address(10, 0, 0, 0), 8}, 0);
  dev.finalizeRoutes();
}

/// Sixteen concurrently active flows — the regime the flow cache targets.
net::Address activeDst(int i) {
  return net::Address(10, 0, 0, static_cast<std::uint8_t>(1 + (i & 15)));
}

/// Minimal concrete Device: routing state only, no forwarding behavior.
class FibDevice : public net::Device {
 public:
  using net::Device::Device;
  void receive(net::PacketRef, net::Interface&) override {}
};

// ---------------------------------------------------------------------------
// Egress queue churn: 64 packets in, 64 packets out, per iteration.

void BM_QueueChurn(benchmark::State& state) {
  net::PacketPool pool;
  net::DropTailQueue q{1_MB};
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      (void)q.tryEnqueue(sim::SimTime::zero(), pooledPacket(pool, activeDst(i)));
    }
    while (!q.empty()) {
      auto p = q.dequeue(sim::SimTime::zero());
      benchmark::DoNotOptimize(p->ttl);
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_QueueChurn);

// ---------------------------------------------------------------------------
// Route lookup: 64 lookups across 16 hot flows against the bench RIB.

void BM_FibLookup(benchmark::State& state) {
  scenario::Scenario s;
  FibDevice dev{s.ctx, "fib"};
  installBenchRoutes(dev);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      auto egress = dev.lookupRoute(activeDst(i));
      benchmark::DoNotOptimize(egress);
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FibLookup);

// ---------------------------------------------------------------------------
// Composite per-hop path: build a packet, take the egress queue in and out,
// and resolve the route — everything a switch hop does to a packet except
// the event-queue trip (micro_simulator covers that side).

void BM_DatapathHop(benchmark::State& state) {
  scenario::Scenario s;
  net::PacketPool pool;
  net::DropTailQueue q{1_MB};
  FibDevice dev{s.ctx, "hop"};
  installBenchRoutes(dev);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      (void)q.tryEnqueue(sim::SimTime::zero(), pooledPacket(pool, activeDst(i)));
      auto p = q.dequeue(sim::SimTime::zero());
      auto egress = dev.lookupRoute(p->flow.dst);
      benchmark::DoNotOptimize(egress);
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DatapathHop);

// ---------------------------------------------------------------------------
// End-to-end: probe bursts through the real simulator stack (host ->
// switch chain -> host), the absolute packets/sec of the assembled data
// path, tracked run over run.

/// Host -> `hops` switches -> host on 100G links; sendBurst() pushes one
/// burst of UDP probes from src and runs the simulator dry.
struct Chain {
  scenario::Scenario s;
  net::Host* src = nullptr;
  net::Host* dst = nullptr;

  explicit Chain(int hops) {
    src = &s.topo.addHost("src", net::Address(10, 0, 0, 1));
    dst = &s.topo.addHost("dst", net::Address(10, 0, 0, 2));
    net::Device* prev = src;
    net::LinkParams lp;
    lp.rate = 100_Gbps;
    for (int i = 0; i < hops; ++i) {
      auto& sw = s.topo.addSwitch("sw" + std::to_string(i));
      s.topo.connect(*prev, sw, lp);
      prev = &sw;
    }
    s.topo.connect(*prev, *dst, lp);
    s.topo.computeRoutes();
  }

  void sendBurst(int packets) {
    for (int i = 0; i < packets; ++i) {
      src->send(net::makeProbePacket(
          s.ctx.pool(), net::FlowKey{src->address(), dst->address(), 9, 9, net::Protocol::kUdp},
          net::ProbeHeader{}, sim::DataSize::bytes(1460)));
    }
    s.simulator.run();
  }
};

void BM_DatapathForwardChain(benchmark::State& state) {
  Chain chain{4};
  const std::uint64_t before = chain.s.ctx.packetsForwarded();
  for (auto _ : state) chain.sendBurst(64);
  // Items are forwarding-plane hops actually executed (4 per packet).
  state.SetItemsProcessed(static_cast<std::int64_t>(chain.s.ctx.packetsForwarded() - before));
}
BENCHMARK(BM_DatapathForwardChain);

// ---------------------------------------------------------------------------
// BENCH_sim.json: a fixed forwarding workload per chain length under the
// sweep runner, so packets_forwarded / packets_per_second land in the
// machine-readable summary.

constexpr int kChainLengths[] = {1, 2, 4, 8};
constexpr int kBursts = 64;
constexpr int kBurstPackets = 64;

void runChainCell(sim::SweepCell& cell) {
  Chain chain{kChainLengths[cell.index]};
  for (int burst = 0; burst < kBursts; ++burst) chain.sendBurst(kBurstPackets);
  scenario::finishCell(chain.s, cell);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  sim::SweepRunner sweep;
  sweep.run<int>(
      std::size(kChainLengths),
      [](sim::SweepCell& cell) {
        runChainCell(cell);
        return 0;
      },
      "datapath_chain");
  bench::writeSweepReport(sweep, "micro_datapath");
  return 0;
}
