// Conformance suite for the simulator's network ledger. Every drain's
// schedule carries link statistics, so the NetStats link aggregates are
// filled on both fabrics, for every execution tier and residency mode,
// and the service scheduler's fleet aggregates are the folds of its
// tenants' solo runs. The fabric (H-tree or bus) may move the costs but
// not the fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mapping/simulation.h"
#include "service/job.h"
#include "service/scheduler.h"

namespace wavepim::mapping {
namespace {

using dg::ProblemKind;

struct RunResult {
  std::vector<float> field;
  PimSimulation::Costs costs;
  PimSimulation::NetStats net;
};

RunResult run_sim(pim::Topology topology, ExecPath path,
                  std::uint32_t block_limit, int level) {
  pim::ChipConfig chip = pim::chip_512mb(topology);
  chip.block_limit = block_limit;
  PimSimulation sim({ProblemKind::Acoustic, level, 3}, ExpansionMode::None,
                    chip);
  sim.set_exec_path(path);
  dg::Field u(sim.mesh().num_elements(), sim.setup().problem().num_vars(),
              static_cast<std::size_t>(sim.setup().ref().num_nodes()));
  for (std::size_t e = 0; e < u.num_elements(); ++e) {
    for (std::size_t v = 0; v < u.num_vars(); ++v) {
      for (std::size_t n = 0; n < u.nodes_per_element(); ++n) {
        u.value(e, v, n) =
            0.01f * static_cast<float>((e * 131 + v * 17 + n * 3) % 97) -
            0.25f;
      }
    }
  }
  sim.load_state(u);
  for (int i = 0; i < 3; ++i) {
    sim.step(2.0e-4);
  }
  const auto out = sim.read_state();
  return {{out.flat().begin(), out.flat().end()}, sim.costs(),
          sim.net_stats()};
}

TEST(NetBackendConformance, LinkStatsOnBothFabrics) {
  struct Residency {
    std::uint32_t block_limit;
    int level;
    const char* name;
  };
  // 0 = fully resident; a 32-block cap on the level-2 mesh forces the
  // batched residency window (HBM staging traffic in the hbm channel).
  const Residency modes[] = {{0, 1, "resident"}, {32, 2, "windowed"}};
  for (const pim::Topology topology : {pim::Topology::HTree,
                                       pim::Topology::Bus}) {
    for (const auto& mode : modes) {
      std::vector<RunResult> runs;
      for (const ExecPath tier : kAllExecPaths) {
        const std::string what = std::string(pim::to_string(topology)) +
                                 "/" + to_string(tier) + "/" + mode.name;
        runs.push_back(run_sim(topology, tier, mode.block_limit, mode.level));
        const auto& net = runs.back().net;
        EXPECT_GT(net.schedules, 0u) << what;
        EXPECT_GT(net.max_utilization, 0.0) << what;
        EXPECT_LE(net.max_utilization, 1.0 + 1e-12) << what;
        EXPECT_GE(net.peak_queue, 1u) << what;
        EXPECT_GE(net.stall_time.value(), 0.0) << what;
      }
      // Every tier drains the same transfer lists: the network ledger
      // and its link aggregates are the same numbers.
      for (const RunResult& run : runs) {
        EXPECT_EQ(run.costs.network.time.value(),
                  runs.front().costs.network.time.value());
        EXPECT_EQ(run.costs.network.energy.value(),
                  runs.front().costs.network.energy.value());
        EXPECT_EQ(run.net.serial_sum.value(),
                  runs.front().net.serial_sum.value());
        EXPECT_EQ(run.net.stall_time.value(),
                  runs.front().net.stall_time.value());
        EXPECT_EQ(run.net.max_utilization, runs.front().net.max_utilization);
        EXPECT_EQ(run.net.peak_queue, runs.front().net.peak_queue);
      }
    }
  }
}

TEST(NetBackendConformance, FieldsAreTopologyIndependentToo) {
  // Fabric choice cannot touch the fields or the transfer traffic. (The
  // cost ledgers legitimately move — every channel that prices fabric
  // latency does, and on a tiny uncontended mesh the bus's wide datapath
  // is even the faster fabric; the H-tree's advantage needs the
  // contended paper-scale batches the Fig. 14 grid evaluates.)
  const auto htree = run_sim(pim::Topology::HTree, ExecPath::Compiled, 0, 1);
  const auto bus = run_sim(pim::Topology::Bus, ExecPath::Compiled, 0, 1);
  ASSERT_EQ(htree.field.size(), bus.field.size());
  for (std::size_t i = 0; i < htree.field.size(); ++i) {
    ASSERT_EQ(htree.field[i], bus.field[i]) << "field word " << i;
  }
  EXPECT_EQ(htree.net.schedules, bus.net.schedules);
  EXPECT_EQ(htree.net.transfers, bus.net.transfers);
  EXPECT_EQ(htree.net.words, bus.net.words);
}

TEST(NetBackendConformance, ServiceLinkAggregatesEqualTheSoloFolds) {
  // The service scheduler multiplexes tenants over pooled chips: every
  // job's link statistics match its solo run, and the fleet aggregates
  // are those solo ledgers folded in job order.
  service::GeneratorOptions gen;
  gen.num_jobs = 6;
  gen.max_steps = 2;
  service::ServiceOptions svc;
  svc.num_chips = 2;
  service::Scheduler scheduler(svc);
  const auto specs = service::generate_jobs(gen);
  const auto fleet = scheduler.run(specs);
  ASSERT_EQ(fleet.jobs.size(), specs.size());

  service::NetSummary solo_fold;
  for (const auto& spec : specs) {
    const auto solo = service::run_job_solo(spec, svc.chip);
    const auto& job = fleet.jobs[spec.id];
    ASSERT_EQ(job.id, spec.id);
    EXPECT_EQ(job.hash, solo.hash) << "job " << job.id;
    EXPECT_EQ(job.net.transfers, solo.net.transfers) << "job " << job.id;
    EXPECT_EQ(job.net.stall_time.value(), solo.net.stall_time.value())
        << "job " << job.id;
    EXPECT_EQ(job.net.max_utilization, solo.net.max_utilization)
        << "job " << job.id;
    EXPECT_EQ(job.net.peak_queue, solo.net.peak_queue) << "job " << job.id;
    solo_fold.stall_s += solo.net.stall_time.value();
    solo_fold.max_utilization =
        std::max(solo_fold.max_utilization, solo.net.max_utilization);
    solo_fold.peak_queue = std::max(solo_fold.peak_queue, solo.net.peak_queue);
  }
  EXPECT_GT(fleet.net.max_utilization, 0.0);
  EXPECT_GT(fleet.net.peak_queue, 0u);
  EXPECT_EQ(fleet.net.stall_s, solo_fold.stall_s);
  EXPECT_EQ(fleet.net.max_utilization, solo_fold.max_utilization);
  EXPECT_EQ(fleet.net.peak_queue, solo_fold.peak_queue);
}

}  // namespace
}  // namespace wavepim::mapping
