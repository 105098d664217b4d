// Contract tests of Interconnect::schedule, plain and with link
// statistics: the invariants documented on it, bit-equality of the two
// results outside the link statistics, and the link statistics
// themselves. An event-driven simulation of the per-link FIFO queues the
// link statistics describe is kept here as an oracle, and a seeded
// property test checks every result field against it. The simulator's
// use of the link statistics is pinned in
// tests/mapping/net_backend_conformance_test.cpp.
#include "pim/interconnect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"

namespace wavepim::pim {
namespace {

Interconnect make(Topology t) { return Interconnect(chip_2gb(t)); }

constexpr bool kLinkStats[] = {false, true};
const Topology kTopologies[] = {Topology::HTree, Topology::Bus};

/// Event-driven simulation of the per-link FIFO queues whose statistics
/// Interconnect::schedule reports on request, its oracle. Every
/// transfer of the batch arrives at t = 0 and waits in a FIFO queue at
/// each switch of its path, ordered by release. A switch with k channels
/// grants them FIFO with free-channel bypass: a transfer starts once it
/// sits within the first (capacity - busy) waiting entries of *every*
/// queue on its path. Completions free the channels and re-arm the
/// queues. Start decisions are drained from a candidate pool in
/// release-rank order, and completion events tie-break on transfer index.
ScheduleResult event_model_schedule(const Interconnect& net,
                                    TransferView transfers) {
  ScheduleResult result{};
  if (transfers.empty()) {
    return result;
  }
  const std::uint32_t num_res = net.num_resources();
  const std::uint32_t n = static_cast<std::uint32_t>(transfers.size());

  // Flattened per-transfer paths and durations.
  std::vector<std::uint32_t> path_begin(n + 1, 0);
  std::vector<std::uint32_t> paths;
  std::vector<Seconds> duration(n);
  {
    std::vector<std::uint32_t> scratch;
    for (std::uint32_t i = 0; i < n; ++i) {
      const Transfer t = transfers[i];
      WAVEPIM_REQUIRE(t.words > 0, "transfer must move at least one word");
      duration[i] = net.isolated_latency(t);
      net.path_resources(t, scratch);
      paths.insert(paths.end(), scratch.begin(), scratch.end());
      path_begin[i + 1] = static_cast<std::uint32_t>(paths.size());
    }
  }
  auto path_of = [&](std::uint32_t i) {
    return std::span<const std::uint32_t>(paths.data() + path_begin[i],
                                          path_begin[i + 1] - path_begin[i]);
  };

  // Queues service strictly FIFO in the shared release order; `rank` is
  // a transfer's position in it. serial_sum and energy fold in it too.
  const std::vector<std::uint32_t> order = release_order(net, transfers);
  std::vector<std::uint32_t> rank(n);
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    const std::uint32_t i = order[pos];
    rank[i] = pos;
    result.serial_sum += duration[i];
    result.energy += net.transfer_energy(transfers[i]);
  }

  // Release-ordered FIFO queue per resource. The head cursor advances
  // lazily past entries that already started.
  std::vector<std::vector<std::uint32_t>> queue(num_res);
  std::vector<std::uint32_t> cap(num_res);
  for (std::uint32_t r = 0; r < num_res; ++r) {
    cap[r] = net.resource_capacity(r);
  }
  for (const std::uint32_t i : order) {
    for (const std::uint32_t r : path_of(i)) {
      queue[r].push_back(i);
    }
  }
  std::vector<std::uint32_t> head(num_res, 0);
  std::vector<std::uint32_t> busy(num_res, 0);
  std::vector<Seconds> busy_time(num_res, Seconds(0.0));
  for (std::uint32_t r = 0; r < num_res; ++r) {
    result.links.peak_queue = std::max(
        result.links.peak_queue, static_cast<std::uint32_t>(queue[r].size()));
  }

  enum State : std::uint8_t { kWaiting, kRunning, kDone };
  std::vector<std::uint8_t> state(n, kWaiting);

  // Completion events, earliest first; the transfer index breaks time
  // ties so event processing is fully deterministic.
  using Event = std::pair<double, std::uint32_t>;  ///< (end time, transfer)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;

  Seconds now(0.0);

  // walk_window visits the free-channel window of a switch in release
  // order, after advancing its head cursor past started entries, and
  // stops early when `visit` returns true.
  auto walk_window = [&](std::uint32_t r, auto&& visit) {
    const auto& q = queue[r];
    std::uint32_t& h = head[r];
    while (h < q.size() && state[q[h]] != kWaiting) {
      ++h;
    }
    const std::uint32_t free = cap[r] - busy[r];
    std::uint32_t seen = 0;
    for (std::uint32_t p = h; p < q.size() && seen < free; ++p) {
      if (state[q[p]] != kWaiting) {
        continue;
      }
      if (visit(q[p])) {
        return true;
      }
      ++seen;
    }
    return false;
  };
  auto in_window = [&](std::uint32_t r, std::uint32_t i) {
    return walk_window(r, [&](std::uint32_t j) { return j == i; });
  };
  auto eligible = [&](std::uint32_t i) {
    for (const std::uint32_t r : path_of(i)) {
      if (busy[r] >= cap[r] || !in_window(r, i)) {
        return false;
      }
    }
    return true;
  };

  // Candidate pool, drained in release-rank order. Entries are ranks
  // (stale ones are discarded at pop).
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>>
      candidates;
  auto push_window = [&](std::uint32_t r) {
    if (busy[r] < cap[r]) {
      walk_window(r, [&](std::uint32_t j) {
        candidates.push(rank[j]);
        return false;
      });
    }
  };
  auto start = [&](std::uint32_t i) {
    state[i] = kRunning;
    result.links.stall_time += now;  // arrival was t = 0
    for (const std::uint32_t r : path_of(i)) {
      ++busy[r];
      busy_time[r] += duration[i];
    }
    events.emplace((now + duration[i]).value(), i);
  };
  auto drain = [&]() {
    while (!candidates.empty()) {
      const std::uint32_t i = order[candidates.top()];
      candidates.pop();
      if (state[i] != kWaiting || !eligible(i)) {
        continue;  // stale, or still blocked — re-exposed by later events
      }
      start(i);
      // Starting shrinks the path windows and shifts entries behind i
      // into them; re-expose both effects.
      for (const std::uint32_t r : path_of(i)) {
        push_window(r);
      }
    }
  };

  // t = 0: self-transfers bypass the fabric entirely; everything else
  // negotiates the queues.
  for (std::uint32_t i = 0; i < n; ++i) {
    if (path_begin[i] == path_begin[i + 1]) {
      start(i);
    }
  }
  for (std::uint32_t r = 0; r < num_res; ++r) {
    push_window(r);
  }
  drain();

  while (!events.empty()) {
    const auto [end_time, i] = events.top();
    events.pop();
    now = Seconds(end_time);
    state[i] = kDone;
    result.makespan = std::max(result.makespan, now);
    for (const std::uint32_t r : path_of(i)) {
      --busy[r];
      push_window(r);
    }
    drain();
  }

  if (result.makespan > Seconds(0.0)) {
    double util_sum = 0.0;
    for (std::uint32_t r = 0; r < num_res; ++r) {
      if (busy_time[r] <= Seconds(0.0)) {
        continue;
      }
      ++result.links.links_used;
      const double util =
          busy_time[r].value() /
          (static_cast<double>(cap[r]) * result.makespan.value());
      util_sum += util;
      result.links.max_utilization =
          std::max(result.links.max_utilization, util);
    }
    if (result.links.links_used > 0) {
      result.links.mean_utilization =
          util_sum / static_cast<double>(result.links.links_used);
    }
  }
  return result;
}

TEST(NetBackendContract, SingleTransferCompletesInIsolatedLatency) {
  const Transfer t{.src_block = 3, .dst_block = 200, .words = 96};
  for (const Topology topo : kTopologies) {
    for (const bool links : kLinkStats) {
      const auto net = make(topo);
      const auto r = net.schedule({&t, 1}, links);
      EXPECT_DOUBLE_EQ(r.makespan.value(), net.isolated_latency(t).value());
      EXPECT_DOUBLE_EQ(r.serial_sum.value(), net.isolated_latency(t).value());
      EXPECT_DOUBLE_EQ(r.energy.value(), net.transfer_energy(t).value());
    }
  }
}

TEST(NetBackendContract, DisjointPathsCompleteInMaxIsolatedLatency) {
  // Distinct S0 subtrees: no shared switch, so the batch must be priced
  // at the slowest member exactly.
  const std::vector<Transfer> batch = {
      {.src_block = 0, .dst_block = 2, .words = 512},
      {.src_block = 4, .dst_block = 6, .words = 64},
      {.src_block = 8, .dst_block = 10, .words = 256},
  };
  const auto net = make(Topology::HTree);
  double slowest = 0.0;
  for (const auto& t : batch) {
    slowest = std::max(slowest, net.isolated_latency(t).value());
  }
  for (const bool links : kLinkStats) {
    EXPECT_DOUBLE_EQ(net.schedule(batch, links).makespan.value(), slowest)
        << "link stats " << links;
  }
}

TEST(NetBackendContract, MakespanBetweenCriticalPathAndSerialSum) {
  // A contended mesh-exchange-like batch.
  std::vector<Transfer> batch;
  for (std::uint32_t b = 0; b < 128; ++b) {
    batch.push_back({.src_block = b, .dst_block = (b * 7 + 3) % 512,
                     .words = 32 + (b % 5) * 16});
  }
  for (const Topology topo : kTopologies) {
    for (const bool links : kLinkStats) {
      const auto net = make(topo);
      double slowest = 0.0;
      for (const auto& t : batch) {
        slowest = std::max(slowest, net.isolated_latency(t).value());
      }
      const auto r = net.schedule(batch, links);
      EXPECT_GE(r.makespan.value(), slowest);
      // serial_sum and makespan fold in different orders; allow FP slack.
      EXPECT_LE(r.makespan.value(), r.serial_sum.value() * (1.0 + 1e-9));
    }
  }
}

TEST(NetBackendContract, DeterministicAcrossRepeatedCalls) {
  std::vector<Transfer> batch;
  for (std::uint32_t b = 0; b < 200; ++b) {
    batch.push_back({.src_block = (b * 13) % 512,
                     .dst_block = (b * 29 + 7) % 512, .words = 16 + b % 40});
  }
  for (const Topology topo : kTopologies) {
    for (const bool links : kLinkStats) {
      const auto net = make(topo);
      const auto a = net.schedule(batch, links);
      const auto b = net.schedule(batch, links);
      EXPECT_EQ(a.makespan.value(), b.makespan.value());
      EXPECT_EQ(a.serial_sum.value(), b.serial_sum.value());
      EXPECT_EQ(a.energy.value(), b.energy.value());
      EXPECT_EQ(a.links.stall_time.value(), b.links.stall_time.value());
      EXPECT_EQ(a.links.peak_queue, b.links.peak_queue);
    }
  }
}

TEST(CycleBackend, LinkStatsOnlyWhenAsked) {
  // Both transfers cross one S0 switch, so the statistics are non-zero
  // when asked for.
  const std::vector<Transfer> batch = {
      {.src_block = 0, .dst_block = 1, .words = 128},
      {.src_block = 2, .dst_block = 3, .words = 128},
  };
  const auto net = make(Topology::HTree);
  const LinkStats plain = net.schedule(batch).links;
  EXPECT_EQ(plain.links_used, 0u);
  EXPECT_EQ(plain.peak_queue, 0u);
  EXPECT_EQ(plain.stall_time.value(), 0.0);
  EXPECT_EQ(plain.max_utilization, 0.0);
  EXPECT_EQ(plain.mean_utilization, 0.0);
  const LinkStats asked = net.schedule(batch, /*link_stats=*/true).links;
  EXPECT_EQ(asked.links_used, 1u);
  EXPECT_EQ(asked.peak_queue, 2u);
  EXPECT_GT(asked.stall_time.value(), 0.0);
}

TEST(CycleBackend, ContendedBatchStallsAndDisjointBatchDoesNot) {
  const auto net = make(Topology::HTree);
  // Both transfers cross the same S0 switch: one must queue.
  const auto contended = net.schedule(
      std::vector<Transfer>{
          {.src_block = 0, .dst_block = 1, .words = 128},
          {.src_block = 2, .dst_block = 3, .words = 128},
      },
      true);
  EXPECT_GT(contended.links.stall_time.value(), 0.0);
  EXPECT_GE(contended.links.peak_queue, 2u);
  EXPECT_NEAR(contended.makespan.value(), contended.serial_sum.value(),
              1e-12);

  const auto disjoint = net.schedule(
      std::vector<Transfer>{
          {.src_block = 0, .dst_block = 1, .words = 128},
          {.src_block = 4, .dst_block = 5, .words = 128},
      },
      true);
  EXPECT_EQ(disjoint.links.stall_time.value(), 0.0);
  EXPECT_EQ(disjoint.links.peak_queue, 1u);
}

TEST(CycleBackend, UtilizationIsNormalizedPerChannel) {
  const auto net = make(Topology::HTree);
  // Two equal transfers serialised through one single-channel S0 switch:
  // that switch is busy the whole makespan -> max utilization 1.
  const auto r = net.schedule(
      std::vector<Transfer>{
          {.src_block = 0, .dst_block = 1, .words = 256},
          {.src_block = 2, .dst_block = 3, .words = 256},
      },
      true);
  EXPECT_EQ(r.links.links_used, 1u);
  EXPECT_NEAR(r.links.max_utilization, 1.0, 1e-12);
  EXPECT_GT(r.links.mean_utilization, 0.0);
  EXPECT_LE(r.links.mean_utilization, r.links.max_utilization + 1e-12);
}

TEST(CycleBackend, BusCollapsesToSerialWhileHtreeOverlaps) {
  // The Fig. 14 mechanism at unit scale: 64 S0-local transfers overlap
  // on the fat tree and fully serialise on the single-channel bus.
  std::vector<Transfer> batch;
  for (std::uint32_t g = 0; g < 64; ++g) {
    batch.push_back({.src_block = 4 * g, .dst_block = 4 * g + 1,
                     .words = 512});
  }
  const auto ht = make(Topology::HTree).schedule(batch, true);
  const auto bus = make(Topology::Bus).schedule(batch, true);
  EXPECT_GT(ht.overlap_factor(), 60.0);
  EXPECT_NEAR(bus.overlap_factor(), 1.0, 1e-9);
  EXPECT_GT(bus.makespan.value() / ht.makespan.value(), 2.0);
  // The bus queue held every pending transfer at its deepest.
  EXPECT_EQ(bus.links.peak_queue, 64u);
}

TEST(CycleBackend, SelfTransfersBypassTheHtreeFabric) {
  const auto net = make(Topology::HTree);
  const Transfer self{.src_block = 7, .dst_block = 7, .words = 64};
  const auto r = net.schedule({&self, 1}, true);
  EXPECT_DOUBLE_EQ(r.makespan.value(), net.isolated_latency(self).value());
  EXPECT_EQ(r.links.links_used, 0u);
  EXPECT_EQ(r.links.stall_time.value(), 0.0);

  // On the bus the row buffer drives the shared medium, so even a
  // self-transfer claims (and shows up on) the tile switch.
  const auto bus = make(Topology::Bus);
  const auto rb = bus.schedule({&self, 1}, true);
  EXPECT_EQ(rb.links.links_used, 1u);
}

TEST(CycleBackend, EmptyBatchIsFree) {
  const auto r = make(Topology::HTree).schedule({}, true);
  EXPECT_EQ(r.makespan.value(), 0.0);
  EXPECT_EQ(r.energy.value(), 0.0);
  EXPECT_EQ(r.links.links_used, 0u);
  EXPECT_EQ(r.links.peak_queue, 0u);
}

TEST(CycleBackend, WorksAcrossHtreeArities) {
  // The window rule uses per-level channel capacities; exercise the
  // non-default tree geometries end to end.
  for (const std::uint32_t arity : {2u, 16u}) {
    ChipConfig config = chip_2gb();
    config.htree_arity = arity;
    const Interconnect net(config);
    std::vector<Transfer> batch;
    for (std::uint32_t b = 0; b < 96; ++b) {
      batch.push_back({.src_block = b, .dst_block = (b * 5 + 2) % 512,
                       .words = 48});
    }
    const auto r = net.schedule(batch, true);
    EXPECT_GT(r.makespan.value(), 0.0);
    EXPECT_LE(r.makespan.value(), r.serial_sum.value() * (1.0 + 1e-9));
    EXPECT_GT(r.links.links_used, 0u);
    EXPECT_GE(r.links.peak_queue, 1u);
  }
}

/// Every ScheduleResult field of a links-requested schedule against the
/// event model. Utilisations fold busy time in release order where the
/// model folded it in its start order, so they may differ by summation
/// order: they are compared within 1e-12 relative, everything else
/// exactly. The plain schedule must match the links-requested one bit for
/// bit outside the link statistics.
void expect_matches_event_model(const Interconnect& net,
                                const std::vector<Transfer>& batch) {
  const ScheduleResult got = net.schedule(batch, /*link_stats=*/true);
  const ScheduleResult want = event_model_schedule(net, TransferView(batch));
  const ScheduleResult plain = net.schedule(batch);
  EXPECT_EQ(got.makespan.value(), want.makespan.value());
  EXPECT_EQ(got.serial_sum.value(), want.serial_sum.value());
  EXPECT_EQ(got.energy.value(), want.energy.value());
  EXPECT_EQ(plain.makespan.value(), got.makespan.value());
  EXPECT_EQ(plain.serial_sum.value(), got.serial_sum.value());
  EXPECT_EQ(plain.energy.value(), got.energy.value());
  EXPECT_EQ(got.links.stall_time.value(), want.links.stall_time.value());
  EXPECT_EQ(got.links.peak_queue, want.links.peak_queue);
  EXPECT_EQ(got.links.links_used, want.links.links_used);
  EXPECT_NEAR(got.links.max_utilization, want.links.max_utilization,
              1e-12 * want.links.max_utilization);
  EXPECT_NEAR(got.links.mean_utilization, want.links.mean_utilization,
              1e-12 * want.links.mean_utilization);
}

TEST(CycleKind, MatchesTheEventModelOnRandomBatches) {
  struct Fabric {
    Topology topology;
    std::uint32_t arity;
  };
  constexpr Fabric kFabrics[] = {{Topology::Bus, 4},
                                 {Topology::HTree, 2},
                                 {Topology::HTree, 4},
                                 {Topology::HTree, 16}};
  std::mt19937_64 rng(1421);
  for (std::uint32_t b = 0; b < 300; ++b) {
    const Fabric fabric = kFabrics[b % 4];
    ChipConfig config = chip_2gb(fabric.topology);
    config.capacity = ChipConfig::tile_bytes() * (1 + rng() % 4);
    config.htree_arity = fabric.arity;
    const Interconnect net(config);
    const std::uint32_t blocks = config.num_blocks();
    // Log-uniform sizes from 1 to 3,000 transfers keep the slow oracle
    // cheap while still reaching large contended batches.
    const auto n = static_cast<std::uint32_t>(
        std::exp(std::uniform_real_distribution<double>(0.0, 8.0)(rng)));
    // Half the batches draw words from a few values, so that equal
    // durations produce tied start and end times.
    const bool ties = b % 8 < 4;
    std::vector<Transfer> batch;
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto src = static_cast<std::uint32_t>(rng() % blocks);
      std::uint32_t dst = src;  // self-transfer
      switch (rng() % 5) {
        case 0:
          break;
        case 1:
          dst = static_cast<std::uint32_t>(rng() % blocks);
          break;
        default:  // nearby: contends on the low switches
          dst = static_cast<std::uint32_t>((src ^ (rng() % 64)) % blocks);
          break;
      }
      constexpr std::uint32_t kTied[] = {1, 16, 64, 200};
      const auto words = ties ? kTied[rng() % 4]
                              : static_cast<std::uint32_t>(1 + rng() % 200);
      batch.push_back({.src_block = src, .dst_block = dst, .words = words});
    }
    SCOPED_TRACE(testing::Message()
                 << "batch " << b << ": " << to_string(fabric.topology)
                 << " arity " << fabric.arity << ", "
                 << config.num_tiles() << " tiles, " << n << " transfers");
    expect_matches_event_model(net, batch);
  }
}

TEST(CycleKind, MatchesTheEventModelOnTheNetScheduleBenchBatch) {
  // BM_NetSchedule's 4K-transfer batch: a contended flux-like exchange
  // over the whole 2GB H-tree.
  const Interconnect net(chip_2gb(Topology::HTree));
  std::vector<Transfer> batch;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    batch.push_back({.src_block = (i * 13) % 16384,
                     .dst_block = (i * 29 + 1) % 16384,
                     .words = 64});
  }
  expect_matches_event_model(net, batch);
}

}  // namespace
}  // namespace wavepim::pim
