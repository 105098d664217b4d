// Conformance suite for the interconnect backend kinds. Both kinds run
// the same list schedule, so they price every batch at the same
// makespan: the network channel's time must match bit for bit. The kinds
// differ only in what the cycle kind adds, its link statistics, and in
// the order `serial_sum` and the network energy are folded (input order
// under cycle, release order under analytic). The nodal fields, the
// compute ledgers (volume/flux/integration), the HBM staging ledger, and
// every transfer count must stay bit-identical too — across all three
// execution tiers, both residency modes, and the service scheduler's
// multiplexed runs. The fabric (H-tree or bus) may move the costs but
// not the fields.
#include <gtest/gtest.h>

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

RunResult run_sim(pim::NetBackendKind backend, pim::Topology topology,
                  ExecPath path, std::uint32_t block_limit, int level) {
  pim::ChipConfig chip = pim::chip_512mb(topology);
  chip.net_backend = backend;
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

/// Everything except the network channel must match bit for bit.
void expect_pricing_only(const RunResult& a, const RunResult& b,
                         const std::string& what) {
  ASSERT_EQ(a.field.size(), b.field.size()) << what;
  for (std::size_t i = 0; i < a.field.size(); ++i) {
    ASSERT_EQ(a.field[i], b.field[i]) << what << ": field word " << i;
  }
  const auto expect_cost_eq = [&](const pim::OpCost& x, const pim::OpCost& y,
                                  const char* channel) {
    EXPECT_EQ(x.time.value(), y.time.value()) << what << ": " << channel;
    EXPECT_EQ(x.energy.value(), y.energy.value()) << what << ": " << channel;
  };
  expect_cost_eq(a.costs.volume, b.costs.volume, "volume");
  expect_cost_eq(a.costs.flux, b.costs.flux, "flux");
  expect_cost_eq(a.costs.integration, b.costs.integration, "integration");
  expect_cost_eq(a.costs.hbm, b.costs.hbm, "hbm");
  // Both kinds run one schedule: the makespans are the same numbers.
  EXPECT_EQ(a.costs.network.time.value(), b.costs.network.time.value())
      << what << ": network time";
  // Transfer traffic is backend-independent (same drains, same batches).
  EXPECT_EQ(a.net.schedules, b.net.schedules) << what;
  EXPECT_EQ(a.net.transfers, b.net.transfers) << what;
  EXPECT_EQ(a.net.words, b.net.words) << what;
  // The serialized lower bound is a sum of isolated latencies — order-
  // independent up to FP summation order.
  EXPECT_NEAR(a.net.serial_sum.value(), b.net.serial_sum.value(),
              1e-9 * (a.net.serial_sum.value() + 1e-30))
      << what;
}

TEST(NetBackendConformance, PricingOnlyAcrossTiersAndResidency) {
  struct Residency {
    std::uint32_t block_limit;
    int level;
    const char* name;
  };
  // 0 = fully resident; a 32-block cap on the level-2 mesh forces the
  // batched residency window (HBM staging traffic in the hbm channel).
  const Residency modes[] = {{0, 1, "resident"}, {32, 2, "windowed"}};
  for (const auto& mode : modes) {
    for (const ExecPath tier : kAllExecPaths) {
      const std::string what = std::string(to_string(tier)) + "/" + mode.name;
      const auto analytic =
          run_sim(pim::NetBackendKind::Analytic, pim::Topology::HTree, tier,
                  mode.block_limit, mode.level);
      const auto cycle =
          run_sim(pim::NetBackendKind::Cycle, pim::Topology::HTree, tier,
                  mode.block_limit, mode.level);
      expect_pricing_only(analytic, cycle, what);
      // The cycle run carries link statistics for every drain.
      EXPECT_EQ(cycle.net.link_schedules, cycle.net.schedules) << what;
      EXPECT_EQ(analytic.net.link_schedules, 0u) << what;
      EXPECT_GE(cycle.net.max_utilization, 0.0) << what;
      EXPECT_LE(cycle.net.max_utilization, 1.0 + 1e-12) << what;
    }
  }
}

TEST(NetBackendConformance, PricingOnlyOnTheBusFabric) {
  const auto analytic =
      run_sim(pim::NetBackendKind::Analytic, pim::Topology::Bus,
              ExecPath::Compiled, 0, 1);
  const auto cycle = run_sim(pim::NetBackendKind::Cycle, pim::Topology::Bus,
                             ExecPath::Compiled, 0, 1);
  // Includes the network time, bit for bit, on the single-channel bus.
  expect_pricing_only(analytic, cycle, "bus/compiled");
}

TEST(NetBackendConformance, FieldsAreTopologyIndependentToo) {
  // The stronger form of pricing-only: fabric choice cannot touch the
  // fields or the transfer traffic. (The cost ledgers legitimately move
  // — every channel that prices fabric latency does, and on a tiny
  // uncontended mesh the bus's wide datapath is even the faster fabric;
  // the H-tree's advantage needs the contended paper-scale batches the
  // Fig. 14 grid evaluates.)
  const auto htree = run_sim(pim::NetBackendKind::Cycle, pim::Topology::HTree,
                             ExecPath::Compiled, 0, 1);
  const auto bus = run_sim(pim::NetBackendKind::Cycle, pim::Topology::Bus,
                           ExecPath::Compiled, 0, 1);
  ASSERT_EQ(htree.field.size(), bus.field.size());
  for (std::size_t i = 0; i < htree.field.size(); ++i) {
    ASSERT_EQ(htree.field[i], bus.field[i]) << "field word " << i;
  }
  EXPECT_EQ(htree.net.schedules, bus.net.schedules);
  EXPECT_EQ(htree.net.transfers, bus.net.transfers);
  EXPECT_EQ(htree.net.words, bus.net.words);
}

TEST(NetBackendConformance, ServiceRunsAreBackendInvariant) {
  // The service scheduler multiplexes tenants over pooled cycle-backend
  // chips: every job's hash and compute/hbm ledgers must match the
  // analytic fleet bit for bit, and each job its own solo run.
  service::GeneratorOptions gen;
  gen.num_jobs = 6;
  gen.max_steps = 2;

  const auto run_fleet = [&](pim::NetBackendKind backend) {
    service::ServiceOptions svc;
    svc.num_chips = 2;
    svc.chip.net_backend = backend;
    service::Scheduler scheduler(svc);
    return scheduler.run(service::generate_jobs(gen));
  };
  const auto analytic = run_fleet(pim::NetBackendKind::Analytic);
  const auto cycle = run_fleet(pim::NetBackendKind::Cycle);

  ASSERT_EQ(analytic.jobs.size(), cycle.jobs.size());
  pim::ChipConfig solo_chip = pim::chip_512mb();
  solo_chip.net_backend = pim::NetBackendKind::Cycle;
  const auto specs = service::generate_jobs(gen);
  for (std::size_t i = 0; i < cycle.jobs.size(); ++i) {
    const auto& a = analytic.jobs[i];
    const auto& c = cycle.jobs[i];
    ASSERT_EQ(a.id, c.id);
    EXPECT_EQ(a.hash, c.hash) << "job " << a.id;
    EXPECT_EQ(a.costs.flux.time.value(), c.costs.flux.time.value());
    EXPECT_EQ(a.costs.volume.energy.value(), c.costs.volume.energy.value());
    EXPECT_EQ(a.costs.hbm.time.value(), c.costs.hbm.time.value());
    EXPECT_EQ(a.costs.network.time.value(), c.costs.network.time.value())
        << "job " << a.id;
    EXPECT_EQ(a.net.transfers, c.net.transfers);

    const auto solo = service::run_job_solo(specs[c.id], solo_chip);
    EXPECT_EQ(c.hash, solo.hash) << "job " << c.id << " vs solo";
    EXPECT_EQ(c.net.transfers, solo.net.transfers);
    EXPECT_EQ(c.net.stall_time.value(), solo.net.stall_time.value());
  }
  // The cycle fleet surfaces queuing aggregates the analytic one cannot.
  EXPECT_GT(cycle.net.link_schedules, 0u);
  EXPECT_EQ(analytic.net.link_schedules, 0u);
  EXPECT_EQ(analytic.net.time_s, cycle.net.time_s);
  EXPECT_NEAR(analytic.net.serial_s, cycle.net.serial_s,
              1e-9 * (analytic.net.serial_s + 1e-30));
  EXPECT_EQ(analytic.net.words, cycle.net.words);
}

}  // namespace
}  // namespace wavepim::mapping
