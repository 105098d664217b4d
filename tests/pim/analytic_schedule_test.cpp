// Bit-identity of the analytic scheduler and the shared release order
// against straightforward reference implementations: a stable comparison
// sort for the release order, and a linear scan for the lowest-index
// earliest-free channel of every switch on a transfer's path (the
// original scheduler), with the link statistics that
// Interconnect::schedule documents. The production code keeps per-switch
// winner trees and a bucket sort; these tests pin that both changes are
// invisible in every ScheduleResult field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "pim/interconnect.h"

namespace wavepim::pim {
namespace {

std::vector<std::uint32_t> reference_release_order(
    const Interconnect& net, const std::vector<Transfer>& transfers) {
  std::vector<std::uint32_t> order(transfers.size());
  std::vector<std::uint64_t> key(transfers.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
    const Transfer& t = transfers[i];
    const std::uint64_t hops = net.hop_count(t.src_block, t.dst_block);
    std::uint64_t h = i + 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    key[i] = (hops << 56) | (h & 0x00FFFFFFFFFFFFFFull);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return key[a] < key[b];
                   });
  return order;
}

/// The list schedule by linear scan. With `link_stats` it also keeps the
/// link statistics as `schedule` documents them: per-resource path count
/// and busy time, folded in release order; start times summed in
/// ascending order; utilisations as busy time over capacity x makespan.
ScheduleResult reference_schedule(const Interconnect& net,
                                  const std::vector<Transfer>& transfers,
                                  bool link_stats = false) {
  ScheduleResult result{};
  std::vector<std::vector<Seconds>> slots(net.num_resources());
  for (std::uint32_t r = 0; r < slots.size(); ++r) {
    slots[r].assign(net.resource_capacity(r), Seconds(0.0));
  }
  std::vector<std::uint32_t> crossing(slots.size(), 0);
  std::vector<Seconds> busy(slots.size(), Seconds(0.0));
  std::vector<Seconds> starts;
  std::vector<std::uint32_t> path;
  std::vector<std::size_t> chosen_slot;
  for (const std::uint32_t i : reference_release_order(net, transfers)) {
    const Transfer& t = transfers[i];
    const Seconds duration = net.isolated_latency(t);
    result.serial_sum += duration;
    result.energy += net.transfer_energy(t);
    net.path_resources(t, path);
    chosen_slot.assign(path.size(), 0);
    Seconds start(0.0);
    for (std::size_t p = 0; p < path.size(); ++p) {
      const auto& res = slots[path[p]];
      std::size_t best = 0;
      for (std::size_t s = 1; s < res.size(); ++s) {
        if (res[s] < res[best]) {
          best = s;
        }
      }
      chosen_slot[p] = best;
      start = std::max(start, res[best]);
    }
    const Seconds end = start + duration;
    for (std::size_t p = 0; p < path.size(); ++p) {
      slots[path[p]][chosen_slot[p]] = end;
      ++crossing[path[p]];
      busy[path[p]] += duration;
    }
    starts.push_back(start);
    result.makespan = std::max(result.makespan, end);
  }
  if (!link_stats) {
    return result;
  }
  LinkStats& links = result.links;
  for (const std::uint32_t count : crossing) {
    links.peak_queue = std::max(links.peak_queue, count);
  }
  std::sort(starts.begin(), starts.end());
  for (const Seconds start : starts) {
    links.stall_time += start;
  }
  if (result.makespan.value() > 0.0) {
    double util_sum = 0.0;
    for (std::uint32_t r = 0; r < busy.size(); ++r) {
      if (busy[r].value() <= 0.0) {
        continue;
      }
      ++links.links_used;
      const double util =
          busy[r].value() / (static_cast<double>(net.resource_capacity(r)) *
                             result.makespan.value());
      util_sum += util;
      links.max_utilization = std::max(links.max_utilization, util);
    }
    if (links.links_used > 0) {
      links.mean_utilization =
          util_sum / static_cast<double>(links.links_used);
    }
  }
  return result;
}

ChipConfig chip_with(Topology topology, std::uint32_t arity,
                     std::uint32_t tiles) {
  ChipConfig config = chip_2gb(topology);
  config.capacity = ChipConfig::tile_bytes() * tiles;
  config.htree_arity = arity;
  return config;
}

/// A seeded batch mixing every hop class: mostly nearby pairs (which
/// contend on the low switches), some anywhere on the chip (cross-tile
/// when there are several tiles), some self-transfers. Word counts come
/// from a small set, so equal durations produce tied free times.
std::vector<Transfer> random_batch(std::mt19937_64& rng, std::uint32_t n,
                                   std::uint32_t blocks) {
  std::vector<Transfer> batch;
  constexpr std::uint32_t kWords[] = {1, 16, 16, 64};
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto src = static_cast<std::uint32_t>(rng() % blocks);
    std::uint32_t dst = src;
    switch (rng() % 4) {
      case 0:
        break;
      case 1:
        dst = static_cast<std::uint32_t>(rng() % blocks);
        break;
      default:
        dst = static_cast<std::uint32_t>((src ^ (rng() % 16)) % blocks);
        break;
    }
    batch.push_back({.src_block = src, .dst_block = dst,
                     .words = kWords[rng() % 4]});
  }
  return batch;
}

void expect_bit_identical(const ScheduleResult& got,
                          const ScheduleResult& want) {
  EXPECT_EQ(got.makespan.value(), want.makespan.value());
  EXPECT_EQ(got.serial_sum.value(), want.serial_sum.value());
  EXPECT_EQ(got.energy.value(), want.energy.value());
  EXPECT_EQ(got.links.links_used, want.links.links_used);
  EXPECT_EQ(got.links.max_utilization, want.links.max_utilization);
  EXPECT_EQ(got.links.mean_utilization, want.links.mean_utilization);
  EXPECT_EQ(got.links.stall_time.value(), want.links.stall_time.value());
  EXPECT_EQ(got.links.peak_queue, want.links.peak_queue);
}

/// Schedules `batch` without and with link statistics and compares every
/// field with the reference.
void expect_matches_reference(const Interconnect& net,
                              const std::vector<Transfer>& batch) {
  for (const bool link_stats : {false, true}) {
    SCOPED_TRACE(link_stats ? "with link statistics" : "plain");
    expect_bit_identical(net.schedule(batch, link_stats),
                         reference_schedule(net, batch, link_stats));
  }
}

/// The largest batch a paper cell schedules: 196,608 face-neighbour
/// fetches on a 256-tile (PIM-8GB) chip, mostly within a tile.
std::vector<Transfer> project_sized_batch(std::uint32_t blocks) {
  std::vector<Transfer> fetch;
  for (std::uint32_t i = 0; i < 196608; ++i) {
    const std::uint32_t dst = (3 * i) % blocks;
    const std::uint32_t step = i % 3 == 0 ? 3 : i % 3 == 1 ? 48 : 768;
    fetch.push_back({.src_block = (dst + step) % blocks,
                     .dst_block = dst,
                     .words = 16});
  }
  return fetch;
}

struct Fabric {
  Topology topology;
  std::uint32_t arity;
};
constexpr Fabric kFabrics[] = {{Topology::Bus, 4},
                               {Topology::HTree, 2},
                               {Topology::HTree, 4},
                               {Topology::HTree, 16}};

TEST(AnalyticSchedule, MatchesLinearScanReferenceOnRandomBatches) {
  std::mt19937_64 rng(20211);
  for (const Fabric fabric : kFabrics) {
    for (std::uint32_t tiles = 1; tiles <= 4; ++tiles) {
      const Interconnect net(chip_with(fabric.topology, fabric.arity, tiles));
      for (const std::uint32_t n : {0u, 1u, 7u, 200u, 3000u}) {
        const auto batch = random_batch(rng, n, net.config().num_blocks());
        SCOPED_TRACE(testing::Message()
                     << to_string(fabric.topology) << " arity "
                     << fabric.arity << ", " << tiles << " tiles, " << n
                     << " transfers");
        expect_matches_reference(net, batch);
      }
    }
  }
}

TEST(AnalyticSchedule, MatchesReferenceWhenEveryDurationTies) {
  // Many equal transfers under one 64-channel root switch and the
  // 16-channel switches below it: the trees see long runs of equal free
  // times, which the reference breaks by lowest channel index.
  const Interconnect net(chip_with(Topology::HTree, 4, 2));
  std::vector<Transfer> batch;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    batch.push_back({.src_block = i % 256,
                     .dst_block = (i * 97 + 128) % 256,
                     .words = 32});
  }
  expect_matches_reference(net, batch);
}

TEST(AnalyticSchedule, MatchesReferenceOnAProjectSizedBatch) {
  for (const Fabric fabric : kFabrics) {
    const Interconnect net(chip_with(fabric.topology, fabric.arity, 256));
    SCOPED_TRACE(testing::Message() << to_string(fabric.topology)
                                    << " arity " << fabric.arity);
    expect_matches_reference(net,
                             project_sized_batch(net.config().num_blocks()));
  }
}

TEST(AnalyticSchedule, MatchesReferenceWhenCrossTileDurationsTie) {
  // Every transfer crosses tiles with the same word count, so each tile
  // root queues about 1,000 equal transfers: more than the widest root
  // (a binary tree's 128 channels) holds, and long runs of equal minima
  // in every tree on the way.
  for (const Fabric fabric : kFabrics) {
    const Interconnect net(chip_with(fabric.topology, fabric.arity, 4));
    const std::uint32_t blocks = net.config().num_blocks();
    std::vector<Transfer> batch;
    for (std::uint32_t i = 0; i < 2048; ++i) {
      const std::uint32_t src = (i * 7) % blocks;
      batch.push_back({.src_block = src,
                       .dst_block = (src + 256 * (1 + i % 3)) % blocks,
                       .words = 32});
    }
    SCOPED_TRACE(testing::Message() << to_string(fabric.topology)
                                    << " arity " << fabric.arity);
    expect_matches_reference(net, batch);
  }
}

TEST(AnalyticSchedule, SelfTransfersAndEmptyBatch) {
  for (const Fabric fabric : kFabrics) {
    const Interconnect net(chip_with(fabric.topology, fabric.arity, 1));
    const std::vector<Transfer> selves = {
        {.src_block = 9, .dst_block = 9, .words = 64},
        {.src_block = 9, .dst_block = 9, .words = 64},
        {.src_block = 200, .dst_block = 200, .words = 8},
    };
    expect_matches_reference(net, selves);
    const auto empty = net.schedule({});
    EXPECT_EQ(empty.makespan.value(), 0.0);
    EXPECT_EQ(empty.serial_sum.value(), 0.0);
    EXPECT_EQ(empty.energy.value(), 0.0);
  }
}

TEST(ReleaseOrder, MatchesStableSortOnRandomBatches) {
  std::mt19937_64 rng(7);
  for (const Fabric fabric : kFabrics) {
    for (std::uint32_t tiles = 1; tiles <= 4; tiles += 3) {
      const Interconnect net(chip_with(fabric.topology, fabric.arity, tiles));
      for (const std::uint32_t n : {0u, 1u, 2u, 255u, 4096u}) {
        const auto batch = random_batch(rng, n, net.config().num_blocks());
        EXPECT_EQ(release_order(net, batch),
                  reference_release_order(net, batch))
            << to_string(fabric.topology) << " arity " << fabric.arity
            << ", " << tiles << " tiles, " << n << " transfers";
      }
    }
  }
}

TEST(ReleaseOrder, MatchesStableSortOnSingleHopClassBatches) {
  // Every transfer shares one hop class, which then owns all buckets.
  const Interconnect htree(chip_with(Topology::HTree, 4, 2));
  std::vector<Transfer> leaf_local;  // one S0 switch each: 1 hop
  std::vector<Transfer> cross_tile;  // full ascent and descent: 8 hops
  for (std::uint32_t i = 0; i < 600; ++i) {
    leaf_local.push_back({.src_block = (4 * i) % 512,
                          .dst_block = (4 * i + 1) % 512,
                          .words = 8});
    cross_tile.push_back({.src_block = i % 256,
                          .dst_block = 256 + (i * 31) % 256,
                          .words = 8});
  }
  const Interconnect bus(chip_with(Topology::Bus, 4, 1));
  std::vector<Transfer> bus_local;  // one tile switch, in and out: 2 hops
  for (std::uint32_t i = 0; i < 600; ++i) {
    bus_local.push_back({.src_block = i % 256,
                         .dst_block = (i + 1) % 256,
                         .words = 8});
  }
  EXPECT_EQ(release_order(htree, leaf_local),
            reference_release_order(htree, leaf_local));
  EXPECT_EQ(release_order(htree, cross_tile),
            reference_release_order(htree, cross_tile));
  EXPECT_EQ(release_order(bus, bus_local),
            reference_release_order(bus, bus_local));
}

TEST(ReleaseOrder, MatchesStableSortAtBucketWidthEdges) {
  // A class of m transfers gets bit_ceil(m) / 4 buckets: one up to four
  // transfers, two at five, and 256 at 1,023 and 1,024 but 512 at 1,025.
  const Interconnect net(chip_with(Topology::HTree, 4, 1));
  for (const std::uint32_t n : {1u, 2u, 3u, 4u, 5u, 1023u, 1024u, 1025u}) {
    std::vector<Transfer> leaf_local;  // one S0 switch each: 1 hop
    for (std::uint32_t i = 0; i < n; ++i) {
      leaf_local.push_back({.src_block = (4 * i) % 256,
                            .dst_block = (4 * i + 3) % 256,
                            .words = 8});
    }
    EXPECT_EQ(release_order(net, leaf_local),
              reference_release_order(net, leaf_local))
        << n << " transfers";
  }
}

TEST(ReleaseOrder, MatchesStableSortOnAProjectSizedBatch) {
  const Interconnect net(chip_with(Topology::HTree, 4, 256));
  const auto fetch = project_sized_batch(net.config().num_blocks());
  EXPECT_EQ(release_order(net, fetch), reference_release_order(net, fetch));
}

TEST(ReleaseOrder, MatchesStableSortAcrossEveryArityTwoHopClass) {
  // A binary tree has eight levels: hop classes 0 (self), 1, 3, ..., 15
  // (within a tile) and 16 (across tiles). Class sizes differ, so each
  // class gets its own bucket width.
  const Interconnect net(chip_with(Topology::HTree, 2, 2));
  std::vector<Transfer> batch;
  std::set<std::uint32_t> classes;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    const std::uint32_t src = (i * 37) % 256;
    const std::uint32_t level = i % 10;
    std::uint32_t dst = src;  // level 8: self-transfer
    if (level < 8) {
      dst = src ^ (1u << level);
    } else if (level == 9) {
      dst = 256 + (i * 11) % 256;
    }
    batch.push_back({.src_block = src, .dst_block = dst, .words = 4});
    classes.insert(net.hop_count(src, dst));
  }
  ASSERT_EQ(classes.size(), 10u);
  EXPECT_EQ(release_order(net, batch), reference_release_order(net, batch));
}

}  // namespace
}  // namespace wavepim::pim
