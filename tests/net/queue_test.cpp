#include "net/queue.hpp"

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "net/packet_pool.hpp"
#include "sim/simulator.hpp"

namespace scidmz::net {
namespace {

using namespace scidmz::sim::literals;
using sim::SimTime;

PacketRef tcpPacket(PacketPool& pool, sim::DataSize payload) {
  PacketRef p = pool.acquire();
  p->flow.proto = Protocol::kTcp;
  p->body = TcpHeader{};
  p->payload = payload;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  PacketPool pool;
  DropTailQueue q{10_KB};
  for (std::uint64_t i = 1; i <= 3; ++i) {
    auto p = tcpPacket(pool, 100_B);
    p->id = i;
    ASSERT_TRUE(q.tryEnqueue(SimTime::zero(), std::move(p)));
  }
  for (std::uint64_t i = 1; i <= 3; ++i) {
    const auto p = q.dequeue(SimTime::zero());
    ASSERT_TRUE(p);
    EXPECT_EQ(p->id, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(DropTailQueue, DropsWhenByteCapacityExceeded) {
  // Capacity 3000B; each 1460B payload packet occupies 1500B on the wire.
  PacketPool pool;
  DropTailQueue q{3000_B};
  EXPECT_TRUE(q.tryEnqueue(SimTime::zero(), tcpPacket(pool, 1460_B)));
  EXPECT_TRUE(q.tryEnqueue(SimTime::zero(), tcpPacket(pool, 1460_B)));
  EXPECT_FALSE(q.tryEnqueue(SimTime::zero(), tcpPacket(pool, 1460_B)));
  EXPECT_EQ(q.stats().enqueued, 2u);
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_DOUBLE_EQ(q.stats().dropFraction(), 1.0 / 3.0);
  // The rejected packet's slot recycled when its handle died in tryEnqueue.
  EXPECT_EQ(pool.liveCount(), 2u);
}

TEST(DropTailQueue, DepthTracksWireSize) {
  PacketPool pool;
  DropTailQueue q{1_MB};
  q.tryEnqueue(SimTime::zero(), tcpPacket(pool, 1460_B));
  EXPECT_EQ(q.depth(), 1500_B);
  (void)q.dequeue(SimTime::zero());
  EXPECT_EQ(q.depth(), 0_B);
  EXPECT_EQ(pool.liveCount(), 0u);  // discarded dequeue result recycled
}

TEST(DropTailQueue, PeakDepthRecorded) {
  PacketPool pool;
  DropTailQueue q{1_MB};
  for (int i = 0; i < 4; ++i) q.tryEnqueue(SimTime::zero(), tcpPacket(pool, 1460_B));
  (void)q.dequeue(SimTime::zero());
  EXPECT_EQ(q.stats().peakDepth, 6000_B);
}

TEST(DropTailQueue, DequeueEmptyReturnsEmptyRef) {
  DropTailQueue q{1_KB};
  EXPECT_FALSE(q.dequeue(SimTime::zero()));
}

TEST(DropTailQueue, CapacityCanShrinkLive) {
  // The Colorado defect clamps buffers at runtime; already-queued bytes
  // stay, but new arrivals beyond the new capacity drop.
  PacketPool pool;
  DropTailQueue q{1_MB};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.tryEnqueue(SimTime::zero(), tcpPacket(pool, 1460_B)));
  }
  q.setCapacity(3000_B);
  EXPECT_FALSE(q.tryEnqueue(SimTime::zero(), tcpPacket(pool, 1460_B)));
  EXPECT_EQ(q.packetCount(), 10u);
}

TEST(DropTailQueue, ShrinkBelowDepthClampsToDepth) {
  // Regression: setCapacity used to report a capacity smaller than the
  // current depth verbatim, leaving depth() > capacity() visible — a
  // nonsensical >100% utilisation. capacity() now clamps to the depth
  // while admission keeps testing the requested size, so drop behavior is
  // unchanged: every arrival drops until the queue drains below it.
  PacketPool pool;
  DropTailQueue q{1_MB};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.tryEnqueue(SimTime::zero(), tcpPacket(pool, 1460_B)));
  }
  ASSERT_EQ(q.depth(), 15000_B);
  q.setCapacity(3000_B);
  EXPECT_EQ(q.capacity(), 15000_B);  // clamped to depth, not 3000
  EXPECT_LE(q.depth(), q.capacity());
  // Arrivals drop exactly as they would with the unclamped capacity.
  EXPECT_FALSE(q.tryEnqueue(SimTime::zero(), tcpPacket(pool, 1460_B)));
  // The reported capacity follows the backlog down and converges to the
  // requested value on its own — no re-apply needed.
  while (q.depth() >= 3000_B) (void)q.dequeue(SimTime::zero());
  EXPECT_EQ(q.capacity(), 3000_B);
  EXPECT_LE(q.depth(), q.capacity());
  // Once below the target, admission works again.
  EXPECT_TRUE(q.tryEnqueue(SimTime::zero(), tcpPacket(pool, 100_B)));
}

TEST(DropTailQueue, RingWrapsAroundPreservingFifo) {
  // Push/pop interleaved so the back crosses into a second block while the
  // front is still in the first; order and depth accounting must hold
  // throughout.
  PacketPool pool;
  DropTailQueue q{1_MB};
  std::uint64_t nextId = 1;
  std::uint64_t expect = 1;
  for (int round = 0; round < 40; ++round) {
    for (int k = 0; k < 7; ++k) {
      auto p = tcpPacket(pool, 100_B);
      p->id = nextId++;
      ASSERT_TRUE(q.tryEnqueue(SimTime::zero(), std::move(p)));
    }
    for (int k = 0; k < 5; ++k) {
      auto p = q.dequeue(SimTime::zero());
      ASSERT_TRUE(p);
      EXPECT_EQ(p->id, expect++);
    }
  }
  while (auto p = q.dequeue(SimTime::zero())) EXPECT_EQ(p->id, expect++);
  EXPECT_EQ(expect, nextId);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.depth(), 0_B);
  EXPECT_EQ(pool.liveCount(), 0u);
}

TEST(DropTailQueue, UdpOverheadSmaller) {
  PacketPool pool;
  DropTailQueue q{1_MB};
  PacketRef p = pool.acquire();
  p->flow.proto = Protocol::kUdp;
  p->payload = 100_B;
  q.tryEnqueue(SimTime::zero(), std::move(p));
  EXPECT_EQ(q.depth(), 128_B);  // 100 + 28
}

TEST(DropTailQueue, PacketCountPastTheEndFailsWithoutAllocating) {
  // One real packet behind a count the rest of the blob cannot hold: the
  // count is refused before any pool slot is taken.
  for (const std::uint64_t count : {std::uint64_t{2}, std::uint64_t{1} << 61}) {
    sim::BitWriter w;
    sim::Codec c{w};
    sim::DataSize capacity = 1_MB;
    sim::codecSize(c, capacity);
    QueueStats stats;
    stats.serialize(c);
    std::uint64_t n = count;
    c.vu64(n);
    Packet p;
    codecPacket(c, p);
    const std::vector<std::uint8_t> blob = w.take();

    PacketPool pool;
    const std::size_t high = pool.highWater();
    DropTailQueue q{1_MB};
    sim::BitReader r{blob.data(), blob.size()};
    sim::Codec rc{r};
    q.serialize(rc, pool);
    EXPECT_FALSE(rc.ok()) << "count " << count;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(pool.liveCount(), 0u);
    EXPECT_EQ(pool.highWater(), high);
  }
}

TEST(PacketPool, RecyclesSlotsLifo) {
  PacketPool pool;
  Packet* first = nullptr;
  {
    PacketRef a = pool.acquire();
    first = a.get();
    EXPECT_EQ(pool.liveCount(), 1u);
  }
  EXPECT_EQ(pool.liveCount(), 0u);
  PacketRef b = pool.acquire();
  EXPECT_EQ(b.get(), first);  // LIFO freelist reuses the hottest slot
  EXPECT_EQ(pool.highWater(), 1u);
}

TEST(PacketPool, AcquireResetsRecycledSlot) {
  PacketPool pool;
  {
    PacketRef a = pool.acquire();
    a->ttl = 3;
    a->id = 77;
    a->payload = 512_B;
  }
  PacketRef b = pool.acquire();
  const Packet fresh{};
  EXPECT_EQ(b->ttl, fresh.ttl);  // no stale TTL leaks into reused slots
  EXPECT_EQ(b->id, fresh.id);
  EXPECT_EQ(b->payload, fresh.payload);
}

TEST(PacketPool, MoveTransfersOwnership) {
  PacketPool pool;
  PacketRef a = pool.acquire();
  Packet* raw = a.get();
  PacketRef b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move) — moved-from is empty
  EXPECT_EQ(b.get(), raw);
  EXPECT_EQ(pool.liveCount(), 1u);
  b.reset();
  EXPECT_EQ(pool.liveCount(), 0u);
}

TEST(PacketPool, GrowsByWholeSlabs) {
  PacketPool pool;
  std::vector<PacketRef> held;
  for (int i = 0; i < 300; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.liveCount(), 300u);
  static_assert(PacketPool::kSlabPackets >= 150 && PacketPool::kSlabPackets < 300);
  EXPECT_EQ(pool.slotCount(), 2 * PacketPool::kSlabPackets);  // two whole slabs
  EXPECT_EQ(pool.highWater(), 300u);
  held.clear();
  EXPECT_EQ(pool.liveCount(), 0u);
  EXPECT_EQ(pool.slotCount(), 2 * PacketPool::kSlabPackets);  // slabs are retained, not freed
}

TEST(PacketPool, ReleasingEverySlotOfAMultiSlabPoolAllocatesNothing) {
  // The free list lives in the free slots, so a large run's teardown (every
  // slot released from a noexcept ~PacketRef) never asks the allocator for
  // memory. Measured as the main arena's allocated bytes.
  PacketPool pool;
  std::vector<PacketRef> held(4 * PacketPool::kSlabPackets);
  for (auto& ref : held) ref = pool.acquire();
  ASSERT_EQ(pool.slotCount(), 4 * PacketPool::kSlabPackets);
  const std::size_t before = mallinfo2().uordblks;
  for (auto& ref : held) ref.reset();
  EXPECT_EQ(mallinfo2().uordblks, before);
  EXPECT_EQ(pool.liveCount(), 0u);
  // The slots recycle: re-acquiring all of them adds no slab.
  for (auto& ref : held) ref = pool.acquire();
  EXPECT_EQ(pool.slotCount(), 4 * PacketPool::kSlabPackets);
}

TEST(PacketPool, SharedPoolTakesBackSlotsReleasedOnOtherThreadsOnceItsFreeListRunsDry) {
  // A shared pool's slot released off its domain's thread goes onto the
  // remote-release stack: the live count drops at once, and the owner
  // reuses the slot before it carves a new slab. Two threads release at
  // once, so the stack sees concurrent pushes.
  sim::Simulator home;
  PacketPool pool;
  pool.shareAcrossDomains(home);
  std::vector<PacketRef> held(PacketPool::kSlabPackets);
  std::set<Packet*> slots;
  for (auto& ref : held) {
    ref = pool.acquire();
    slots.insert(ref.get());
  }
  ASSERT_EQ(pool.slotCount(), PacketPool::kSlabPackets);
  const std::size_t half = held.size() / 2;
  std::thread first([&] {
    for (std::size_t i = 0; i < half; ++i) held[i].reset();
  });
  std::thread second([&] {
    for (std::size_t i = half; i < held.size(); ++i) held[i].reset();
  });
  first.join();
  second.join();
  EXPECT_EQ(pool.liveCount(), 0u);
  EXPECT_EQ(pool.highWater(), PacketPool::kSlabPackets);

  std::set<Packet*> again;
  for (auto& ref : held) {
    ref = pool.acquire();
    again.insert(ref.get());
  }
  EXPECT_EQ(again, slots);
  EXPECT_EQ(pool.slotCount(), PacketPool::kSlabPackets);
  EXPECT_EQ(pool.liveCount(), PacketPool::kSlabPackets);
  EXPECT_EQ(pool.highWater(), PacketPool::kSlabPackets);
  held.clear();  // outside any domain's epoch: remote releases again
  EXPECT_EQ(pool.liveCount(), 0u);
}

TEST(PacketPool, OwnerRefillsWhileAnotherThreadReleasesKeepEverySlotAccountedFor) {
  // The owner keeps acquiring (its free list runs dry again and again, so
  // it takes the remote stack back) while another thread releases handles
  // it was handed. No slot is lost or handed out twice.
  sim::Simulator home;
  PacketPool pool;
  pool.shareAcrossDomains(home);
  constexpr std::size_t kHanded = 4 * PacketPool::kSlabPackets;
  std::vector<PacketRef> handed(kHanded);
  for (auto& ref : handed) ref = pool.acquire();
  std::thread releaser([&] {
    for (auto& ref : handed) ref.reset();
  });
  std::vector<PacketRef> kept;
  std::set<Packet*> live;
  for (std::size_t i = 0; i < kHanded; ++i) {
    kept.push_back(pool.acquire());
    EXPECT_TRUE(live.insert(kept.back().get()).second);
  }
  releaser.join();
  EXPECT_EQ(pool.liveCount(), kHanded);
  EXPECT_LE(pool.slotCount(), 2 * kHanded);
}

using HandleRing = detail::Ring<PacketRef>;

TEST(RingBlocks, FifoAcrossBlockBoundariesAndBlocksComeBackOnDrain) {
  PacketPool pool;
  HandleRing ring;
  constexpr std::size_t kBlock = HandleRing::kBlockElems;
  EXPECT_EQ(ring.blocksHeld(), 0u);  // an unused ring holds no memory
  std::uint64_t nextId = 0;
  std::uint64_t expect = 0;
  auto push = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      PacketRef p = pool.acquire();
      p->id = nextId++;
      ring.push(std::move(p));
    }
  };
  auto pop = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      PacketRef p = ring.pop();
      ASSERT_EQ(p->id, expect++);
    }
  };
  push(5 * kBlock + 3);
  EXPECT_EQ(ring.blocksHeld(), 6u);
  Packet* third = ring[2].get();
  // Growth never moves an element: handles already held stay where they are.
  push(2 * kBlock);
  EXPECT_EQ(ring[2].get(), third);
  EXPECT_EQ(ring.back()->id, nextId - 1);
  // Draining gives blocks back as it goes: what is held follows what is live
  // (one partial block at each end plus at most one spare).
  pop(4 * kBlock);
  EXPECT_LE(ring.blocksHeld(), ring.size() / kBlock + 3);
  // Interleave across further boundaries.
  for (int round = 0; round < 8; ++round) {
    push(kBlock / 2 + 1);
    pop(kBlock / 2 + 3);
  }
  pop(ring.size());
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(expect, nextId);
  EXPECT_EQ(ring.blocksHeld(), 1u);  // the one spare
  EXPECT_EQ(pool.liveCount(), 0u);
  // A ring that hovers around empty reuses its spare.
  for (int i = 0; i < 3; ++i) {
    push(1);
    EXPECT_EQ(ring.blocksHeld(), 1u);
    pop(1);
  }
}

TEST(RingBlocks, ClearReleasesEveryHandleAndKeepsOneSpare) {
  PacketPool pool;
  HandleRing ring;
  for (std::size_t i = 0; i < 3 * HandleRing::kBlockElems; ++i) ring.push(pool.acquire());
  EXPECT_EQ(ring.blocksHeld(), 3u);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.blocksHeld(), 1u);
  EXPECT_EQ(pool.liveCount(), 0u);
  PacketRef p = pool.acquire();
  p->id = 42;
  ring.push(std::move(p));
  EXPECT_EQ(ring.front()->id, 42u);
  EXPECT_EQ(ring.blocksHeld(), 1u);
}

}  // namespace
}  // namespace scidmz::net
