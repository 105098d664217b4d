#include "pim/interconnect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.h"

namespace wavepim::pim {
namespace {

Interconnect make(Topology t) { return Interconnect(chip_2gb(t)); }

TEST(HopCount, HtreeLevels) {
  const auto net = make(Topology::HTree);
  EXPECT_EQ(net.hop_count(0, 0), 0u);
  // Same S0 group (blocks 0..3): one switch.
  EXPECT_EQ(net.hop_count(0, 1), 1u);
  EXPECT_EQ(net.hop_count(0, 3), 1u);
  // Paper Fig. 3 example: block 0 -> block 5 goes S0, S1, S0' (3 hops).
  EXPECT_EQ(net.hop_count(0, 5), 3u);
  // Different 64-block quadrant: 5 hops.
  EXPECT_EQ(net.hop_count(0, 20), 5u);
  // Across the tile root: 7 hops.
  EXPECT_EQ(net.hop_count(0, 200), 7u);
  // Cross-tile: both full trees.
  EXPECT_EQ(net.hop_count(0, 256), 8u);
}

TEST(HopCount, BusIsFlat) {
  const auto net = make(Topology::Bus);
  EXPECT_EQ(net.hop_count(0, 5), 2u);
  EXPECT_EQ(net.hop_count(0, 200), 2u);
  EXPECT_EQ(net.hop_count(0, 300), 4u);
}

TEST(HopCount, Symmetric) {
  const auto net = make(Topology::HTree);
  for (std::uint32_t a : {0u, 5u, 17u, 100u, 255u, 300u}) {
    for (std::uint32_t b : {1u, 6u, 64u, 255u, 511u}) {
      EXPECT_EQ(net.hop_count(a, b), net.hop_count(b, a));
    }
  }
}

TEST(HopCount, RejectsOutOfRangeBlocks) {
  const auto net = make(Topology::HTree);
  EXPECT_THROW((void)net.hop_count(0, 1u << 30), PreconditionError);
}

TEST(IsolatedLatency, GrowsWithWordsAndHops) {
  const auto net = make(Topology::HTree);
  const Transfer near{.src_block = 0, .dst_block = 1, .words = 64};
  const Transfer far{.src_block = 0, .dst_block = 200, .words = 64};
  const Transfer big{.src_block = 0, .dst_block = 1, .words = 512};
  EXPECT_LT(net.isolated_latency(near), net.isolated_latency(far));
  EXPECT_LT(net.isolated_latency(near), net.isolated_latency(big));
}

TEST(IsolatedLatency, CrossTilePaysChannelPenalty) {
  const auto net = make(Topology::HTree);
  const Transfer local{.src_block = 0, .dst_block = 200, .words = 100};
  const Transfer cross{.src_block = 0, .dst_block = 300, .words = 100};
  EXPECT_LT(net.isolated_latency(local), net.isolated_latency(cross));
  EXPECT_LT(net.transfer_energy(local), net.transfer_energy(cross));
}

TEST(Schedule, DisjointHtreeTransfersOverlap) {
  // Paper Fig. 3: block 0 -> 2 and 5 -> 7 can run simultaneously on the
  // H-tree (disjoint S0 switches) but serialise on the bus.
  const Transfer t1{.src_block = 0, .dst_block = 2, .words = 256};
  const Transfer t2{.src_block = 5, .dst_block = 7, .words = 256};
  const std::vector<Transfer> batch = {t1, t2};

  const auto ht = make(Topology::HTree).schedule(batch);
  const auto bus = make(Topology::Bus).schedule(batch);

  // H-tree: both transfers overlap fully.
  EXPECT_NEAR(ht.makespan.value(),
              make(Topology::HTree).isolated_latency(t1).value(), 1e-12);
  // Bus: strictly serial (its wide datapath makes each transfer quick,
  // but only one path can be enabled at a time — §4.2.2).
  EXPECT_NEAR(bus.makespan.value(), bus.serial_sum.value(), 1e-12);
  EXPECT_GT(ht.overlap_factor(), bus.overlap_factor());
}

TEST(Schedule, SharedHtreePathSerializes) {
  // Two transfers through the same S0 switch cannot overlap.
  const std::vector<Transfer> batch = {
      {.src_block = 0, .dst_block = 1, .words = 128},
      {.src_block = 2, .dst_block = 3, .words = 128},
  };
  const auto net = make(Topology::HTree);
  const auto r = net.schedule(batch);
  EXPECT_NEAR(r.makespan.value(), r.serial_sum.value(), 1e-12);
}

TEST(Schedule, ManyParallelNeighborTransfers) {
  // 64 disjoint S0-local transfers: H-tree runs them all in parallel.
  std::vector<Transfer> batch;
  for (std::uint32_t g = 0; g < 64; ++g) {
    batch.push_back({.src_block = 4 * g, .dst_block = 4 * g + 1,
                     .words = 512});
  }
  const auto ht = make(Topology::HTree).schedule(batch);
  const auto bus = make(Topology::Bus).schedule(batch);
  EXPECT_GT(ht.overlap_factor(), 60.0);
  EXPECT_NEAR(bus.overlap_factor(), 1.0, 1e-9);
  // The headline claim: H-tree >> bus under flux-like traffic.
  EXPECT_GT(bus.makespan.value() / ht.makespan.value(), 2.0);
}

TEST(Schedule, EmptyBatchIsFree) {
  const auto r = make(Topology::HTree).schedule({});
  EXPECT_EQ(r.makespan.value(), 0.0);
  EXPECT_EQ(r.energy.value(), 0.0);
}

TEST(Schedule, EnergyIsTopologyDependentButScheduleInvariant) {
  const std::vector<Transfer> batch = {
      {.src_block = 0, .dst_block = 100, .words = 64},
      {.src_block = 7, .dst_block = 9, .words = 64},
  };
  const auto ht = make(Topology::HTree).schedule(batch);
  const auto bus = make(Topology::Bus).schedule(batch);
  // Bus paths have fewer hops -> less switching energy.
  EXPECT_LT(bus.energy.value(), ht.energy.value());
}

TEST(Transfer, ZeroWordTransfersRejected) {
  const auto net = make(Topology::HTree);
  const Transfer t{.src_block = 0, .dst_block = 1, .words = 0};
  EXPECT_THROW((void)net.isolated_latency(t), PreconditionError);
  for (const NetBackendKind kind :
       {NetBackendKind::Analytic, NetBackendKind::Cycle}) {
    ChipConfig config = chip_2gb();
    config.net_backend = kind;
    EXPECT_THROW((void)Interconnect(config).schedule({&t, 1}),
                 PreconditionError);
  }
}

// --- Resource-model edge cases (shared by both timing backends) -------

std::vector<std::uint32_t> path_of(const Interconnect& net,
                                   const Transfer& t) {
  std::vector<std::uint32_t> out;
  net.path_resources(t, out);
  return out;
}

TEST(PathResources, LengthMatchesHopCount) {
  // Every switch hop is one contended resource; the inter-tile crossbar
  // leg is priced in latency/energy but is not a shared resource.
  const auto net = make(Topology::HTree);
  for (const auto& [src, dst] : std::vector<std::pair<std::uint32_t,
                                                      std::uint32_t>>{
           {0, 1}, {0, 5}, {0, 20}, {0, 200}, {17, 255}}) {
    const Transfer t{.src_block = src, .dst_block = dst, .words = 8};
    EXPECT_EQ(path_of(net, t).size(), net.hop_count(src, dst))
        << src << " -> " << dst;
  }
}

TEST(PathResources, SelfTransferEmptyOnHtreeButClaimsBusSwitch) {
  // H-tree: the row buffer moves the words without entering the fabric.
  // Bus: the row buffer drives the shared medium, so the tile switch is
  // claimed even for src == dst (the pre-seam scheduler priced it that
  // way, and the analytic baseline depends on it).
  const Transfer self{.src_block = 300, .dst_block = 300, .words = 8};
  EXPECT_TRUE(path_of(make(Topology::HTree), self).empty());
  const auto bus_path = path_of(make(Topology::Bus), self);
  ASSERT_EQ(bus_path.size(), 1u);
  EXPECT_EQ(bus_path[0], 1u);  // bus resource id == tile id
}

TEST(PathResources, CrossTileUsesBothFullAncestorChains) {
  const auto net = make(Topology::HTree);
  const Transfer t{.src_block = 3, .dst_block = 256, .words = 8};
  const auto path = path_of(net, t);
  ASSERT_EQ(path.size(), 8u);  // 4 levels up + 4 levels down
  // First four resources are tile 0's chain, the rest tile 1's.
  for (std::size_t i = 0; i < path.size(); ++i) {
    const bool src_side = i % 2 == 0;  // chains are interleaved per level
    EXPECT_EQ(path[i] / 85, src_side ? 0u : 1u) << i;
  }
  // No duplicates: a resource appears at most once per path.
  auto sorted = path;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(PathResources, SameTilePathVisitsLcaOnce) {
  // 0 -> 5: up through S0(0), down through S0(1), joined at S1(0) — the
  // LCA switch appears exactly once (3 distinct resources, Fig. 3).
  const auto net = make(Topology::HTree);
  const auto path =
      path_of(net, {.src_block = 0, .dst_block = 5, .words = 8});
  ASSERT_EQ(path.size(), 3u);
  auto sorted = path;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(PathResources, SingleTileChip) {
  // A one-tile chip (the smallest legal geometry) still builds, and its
  // resource space is exactly one tile's switches.
  ChipConfig config = chip_512mb();
  config.capacity = ChipConfig::tile_bytes();
  const Interconnect net(config);
  EXPECT_EQ(net.num_resources(), 85u);
  EXPECT_EQ(net.hop_count(0, 255), 7u);
  const auto path =
      path_of(net, {.src_block = 0, .dst_block = 255, .words = 8});
  EXPECT_EQ(path.size(), 7u);
  for (const std::uint32_t r : path) {
    EXPECT_LT(r, 85u);
  }
  // Out-of-tile blocks are rejected, not wrapped.
  EXPECT_THROW((void)net.hop_count(0, 256), PreconditionError);

  ChipConfig bus = config;
  bus.topology = Topology::Bus;
  EXPECT_EQ(Interconnect(bus).num_resources(), 1u);
}

TEST(PathResources, NonDefaultAritiesKeepPathHopIdentity) {
  for (const std::uint32_t arity : {2u, 16u}) {
    ChipConfig config = chip_2gb();
    config.htree_arity = arity;
    const Interconnect net(config);
    for (const auto& [src, dst] : std::vector<std::pair<std::uint32_t,
                                                        std::uint32_t>>{
             {0, 1}, {0, 100}, {0, 255}, {5, 300}}) {
      const Transfer t{.src_block = src, .dst_block = dst, .words = 8};
      const auto path = path_of(net, t);
      EXPECT_EQ(path.size(), net.hop_count(src, dst))
          << "arity " << arity << ": " << src << " -> " << dst;
      for (const std::uint32_t r : path) {
        EXPECT_LT(r, net.num_resources());
      }
    }
    // Self-transfers stay off-fabric in every geometry.
    EXPECT_TRUE(
        path_of(net, {.src_block = 9, .dst_block = 9, .words = 8}).empty());
  }
}

TEST(ResourceCapacity, WidensUpTheTreeAndIsFlatOnTheBus) {
  const auto net = make(Topology::HTree);
  // Tile 0: S0 block at offset 0..63, S1 at 64..79, S2 at 80..83, S3 84.
  EXPECT_EQ(net.resource_capacity(0), 1u);
  EXPECT_EQ(net.resource_capacity(64), 4u);
  EXPECT_EQ(net.resource_capacity(80), 16u);
  EXPECT_EQ(net.resource_capacity(84), 64u);
  // Same profile in the next tile's block of switches.
  EXPECT_EQ(net.resource_capacity(85), 1u);
  EXPECT_EQ(net.resource_capacity(85 + 84), 64u);

  const auto bus = make(Topology::Bus);
  EXPECT_EQ(bus.resource_capacity(0), 1u);
  EXPECT_EQ(bus.resource_capacity(1), 1u);
}

}  // namespace
}  // namespace wavepim::pim
