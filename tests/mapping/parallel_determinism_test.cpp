// Guards the parallel execution contract of PimSimulation: the functional
// simulator distributes whole elements across ThreadPool workers, and the
// schedule (element-ordered transfer merge, two-phase flux with pairing-
// settled neighbour charges, block-id-ordered ledger drain) must make the
// nodal fields AND every cost channel bit-identical for any worker count,
// on each execution tier. The cache's class streams are checked against
// direct emission by the functional oracle (functional_oracle_test.cpp);
// CacheConformance below pins how many classes the cache forms.
#include <gtest/gtest.h>

#include <vector>

#include "mapping/simulation.h"

namespace wavepim::mapping {
namespace {

using dg::ProblemKind;
using mesh::Boundary;

struct RunResult {
  std::vector<float> field;
  PimSimulation::Costs costs;
  PimSimulation::NetStats net;
};

/// Runs `steps` time steps on the given tier and worker count and
/// returns the final nodal field plus the accumulated cost report.
template <typename MakeSim>
RunResult run_at(MakeSim&& make_sim, ExecPath path, std::size_t threads,
                 int steps) {
  auto sim = make_sim();
  sim->set_num_threads(threads);
  sim->set_exec_path(path);
  dg::Field u(sim->mesh().num_elements(), sim->setup().problem().num_vars(),
              static_cast<std::size_t>(sim->setup().ref().num_nodes()));
  for (std::size_t e = 0; e < u.num_elements(); ++e) {
    for (std::size_t v = 0; v < u.num_vars(); ++v) {
      for (std::size_t n = 0; n < u.nodes_per_element(); ++n) {
        u.value(e, v, n) =
            0.01f * static_cast<float>((e * 131 + v * 17 + n * 3) % 97) -
            0.25f;
      }
    }
  }
  sim->load_state(u);
  for (int i = 0; i < steps; ++i) {
    sim->step(2.0e-4);
  }
  const auto out = sim->read_state();
  return {{out.flat().begin(), out.flat().end()}, sim->costs(),
          sim->net_stats()};
}

void expect_identical(const RunResult& a, const RunResult& b,
                      std::size_t threads) {
  ASSERT_EQ(a.field.size(), b.field.size());
  for (std::size_t i = 0; i < a.field.size(); ++i) {
    ASSERT_EQ(a.field[i], b.field[i])
        << "field word " << i << " diverged at " << threads << " threads";
  }
  const auto expect_cost_eq = [&](const pim::OpCost& x, const pim::OpCost& y,
                                  const char* channel) {
    EXPECT_EQ(x.time.value(), y.time.value())
        << channel << " time diverged at " << threads << " threads";
    EXPECT_EQ(x.energy.value(), y.energy.value())
        << channel << " energy diverged at " << threads << " threads";
  };
  expect_cost_eq(a.costs.volume, b.costs.volume, "volume");
  expect_cost_eq(a.costs.flux, b.costs.flux, "flux");
  expect_cost_eq(a.costs.integration, b.costs.integration, "integration");
  expect_cost_eq(a.costs.network, b.costs.network, "network");
  EXPECT_EQ(a.net.schedules, b.net.schedules)
      << "network schedule count diverged at " << threads << " threads";
  EXPECT_EQ(a.net.transfers, b.net.transfers)
      << "transfer count diverged at " << threads << " threads";
  EXPECT_EQ(a.net.words, b.net.words)
      << "transferred words diverged at " << threads << " threads";
  EXPECT_EQ(a.net.serial_sum.value(), b.net.serial_sum.value())
      << "serial latency sum diverged at " << threads << " threads";
}

/// Thread counts required by the contract: serial, two workers, and
/// whatever the hardware offers (0 = the global pool), plus a mid count
/// that still beats the inline-execution threshold on a 64-element mesh.
const std::size_t kThreadCounts[] = {2, 4, 8, 0};

/// On every tier, each worker count's run must equal that tier's serial
/// run.
template <typename MakeSim>
void expect_worker_count_independent(MakeSim&& make, int steps) {
  for (ExecPath path : kAllExecPaths) {
    SCOPED_TRACE(to_string(path));
    const RunResult serial = run_at(make, path, 1, steps);
    for (std::size_t threads : kThreadCounts) {
      expect_identical(serial, run_at(make, path, threads, steps), threads);
    }
  }
}

TEST(ParallelDeterminism, AcousticLevel2MatchesSerialBitExact) {
  // Level 2: 64 elements, enough for real work distribution (the pool
  // fans out every loop of n >= 2).
  const auto make = [] {
    return std::make_unique<PimSimulation>(
        Problem{ProblemKind::Acoustic, 2, 3}, ExpansionMode::None,
        pim::chip_512mb());
  };
  expect_worker_count_independent(make, 2);
}

TEST(ParallelDeterminism, ExpandedAcousticMatchesSerialBitExact) {
  // The 4-block expansion exercises intra-element transfers from multiple
  // groups plus multi-block inter-element pulls.
  const auto make = [] {
    return std::make_unique<PimSimulation>(
        Problem{ProblemKind::Acoustic, 2, 3}, ExpansionMode::Acoustic4,
        pim::chip_512mb());
  };
  expect_worker_count_independent(make, 1);
}

TEST(ParallelDeterminism, ElasticReflectiveMatchesSerialBitExact) {
  // Reflective walls drop boundary-face exchanges from the pairing
  // schedule; elastic 3-block mode keeps the ledgers multi-group.
  const auto make = [] {
    return std::make_unique<PimSimulation>(
        Problem{ProblemKind::ElasticCentral, 1, 3}, ExpansionMode::Elastic3,
        pim::chip_512mb(), Boundary::Reflective);
  };
  expect_worker_count_independent(make, 2);
}

TEST(ParallelDeterminism, HeterogeneousAcousticMatchesSerialBitExact) {
  // Per-element coefficient overrides follow the element, not the worker.
  const auto make = [] {
    mesh::StructuredMesh mesh(2, 1.0, Boundary::Periodic);
    dg::MaterialField<dg::AcousticMaterial> mats(mesh.num_elements(), {});
    for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
      if (mesh.coords_of(e)[2] >= 2) {
        mats.set(e, {.kappa = 4.0, .rho = 2.0});
      }
    }
    return std::make_unique<PimSimulation>(
        Problem{ProblemKind::Acoustic, 2, 3}, ExpansionMode::None,
        pim::chip_512mb(), mats);
  };
  expect_worker_count_independent(make, 1);
}

TEST(ParallelDeterminism, SingleElementSelfNeighbourIsStable) {
  // Level 0 periodic: the element is its own neighbour on all six faces,
  // the degenerate case of the pairing schedule.
  const auto make = [] {
    return std::make_unique<PimSimulation>(
        Problem{ProblemKind::Acoustic, 0, 3}, ExpansionMode::None,
        pim::chip_512mb());
  };
  expect_worker_count_independent(make, 2);
}

TEST(ParallelDeterminism, RepeatedRunsAgree) {
  // Same worker count twice: guards against scheduling-dependent state
  // leaking across runs (e.g. unordered ledger merges).
  const auto make = [] {
    return std::make_unique<PimSimulation>(
        Problem{ProblemKind::Acoustic, 2, 3}, ExpansionMode::None,
        pim::chip_512mb());
  };
  for (ExecPath path : kAllExecPaths) {
    SCOPED_TRACE(to_string(path));
    expect_identical(run_at(make, path, 3, 1), run_at(make, path, 3, 1), 3);
  }
}

// ---- Shape-class cache ----------------------------------------------------
TEST(CacheConformance, ClassCountsMatchProblemStructure) {
  // The cache must actually collapse equivalent elements: a uniform
  // periodic mesh is a single class; a reflective level-2 mesh has one
  // class per boundary-face pattern (3^3 corner/edge/face/interior
  // combinations = 27); a two-layer medium splits classes by material.
  const auto classes_of = [](PimSimulation& sim) {
    sim.set_exec_path(ExecPath::Compiled);
    sim.step(1.0e-4);  // builds the cache on the first step
    return sim.program_cache()->num_classes();
  };

  PimSimulation uniform(Problem{ProblemKind::Acoustic, 2, 3},
                        ExpansionMode::None, pim::chip_512mb());
  EXPECT_EQ(classes_of(uniform), 1u);

  PimSimulation reflective(Problem{ProblemKind::Acoustic, 2, 3},
                           ExpansionMode::None, pim::chip_512mb(),
                           Boundary::Reflective);
  EXPECT_EQ(classes_of(reflective), 27u);

  mesh::StructuredMesh mesh(2, 1.0, Boundary::Periodic);
  dg::MaterialField<dg::AcousticMaterial> mats(mesh.num_elements(), {});
  for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
    if (mesh.coords_of(e)[2] >= 2) {
      mats.set(e, {.kappa = 4.0, .rho = 2.0});
    }
  }
  PimSimulation layered(Problem{ProblemKind::Acoustic, 2, 3},
                        ExpansionMode::None, pim::chip_512mb(), mats);
  // Three z-bands of face-pair classes: inside the lower material,
  // inside the upper, and the two straddling interfaces (the periodic
  // wrap makes the top-bottom seam an interface too).
  EXPECT_GT(classes_of(layered), 1u);
  EXPECT_LE(classes_of(layered), 8u);
}

}  // namespace
}  // namespace wavepim::mapping
