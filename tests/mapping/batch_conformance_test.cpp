// BatchConformance: pins the residency layer's core guarantee — a
// problem forced off-chip (ChipConfig::block_limit) and executed through
// the windowed Fig. 7 batch schedule produces bit-identical nodal fields
// and compute/net cost channels to the same problem fully resident, on
// every execution tier and worker count. Staging is the only difference
// and lands exclusively in the separate `hbm` channel, whose executed
// load/store counts must agree with the BatchSchedule the estimator also
// consumes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "dg/rk.h"
#include "mapping/residency.h"
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

/// Deterministic non-trivial initial state shared by every run.
dg::Field seeded_state(const PimSimulation& sim) {
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
  return u;
}

template <typename MakeSim>
RunResult run_at(MakeSim&& make_sim, ExecPath path, std::size_t threads,
                 int steps) {
  auto sim = make_sim();
  sim->set_num_threads(threads);
  sim->set_exec_path(path);
  sim->load_state(seeded_state(*sim));
  for (int i = 0; i < steps; ++i) {
    sim->step(2.0e-4);
  }
  const auto out = sim->read_state();
  return {{out.flat().begin(), out.flat().end()}, sim->costs(),
          sim->net_stats()};
}

/// Fields and the compute/net channels must match bit-for-bit; the hbm
/// channel is exempt (it is exactly where staging shows up).
void expect_identical(const RunResult& a, const RunResult& b, ExecPath path,
                      std::size_t threads) {
  ASSERT_EQ(a.field.size(), b.field.size());
  for (std::size_t i = 0; i < a.field.size(); ++i) {
    ASSERT_EQ(a.field[i], b.field[i])
        << "field word " << i << " diverged on " << to_string(path) << " at "
        << threads << " threads";
  }
  const auto expect_cost_eq = [&](const pim::OpCost& x, const pim::OpCost& y,
                                  const char* channel) {
    EXPECT_EQ(x.time.value(), y.time.value())
        << channel << " time diverged on " << to_string(path) << " at "
        << threads << " threads";
    EXPECT_EQ(x.energy.value(), y.energy.value())
        << channel << " energy diverged on " << to_string(path) << " at "
        << threads << " threads";
  };
  expect_cost_eq(a.costs.volume, b.costs.volume, "volume");
  expect_cost_eq(a.costs.flux, b.costs.flux, "flux");
  expect_cost_eq(a.costs.integration, b.costs.integration, "integration");
  expect_cost_eq(a.costs.network, b.costs.network, "network");
  EXPECT_EQ(a.net.schedules, b.net.schedules);
  EXPECT_EQ(a.net.transfers, b.net.transfers);
  EXPECT_EQ(a.net.words, b.net.words);
  EXPECT_EQ(a.net.serial_sum.value(), b.net.serial_sum.value());
}

/// The serial fully-resident compiled run is the reference every batched
/// (tier x worker count) combination compares against.
template <typename MakeResident, typename MakeBatched>
void expect_batch_conformance(MakeResident&& make_resident,
                              MakeBatched&& make_batched, int steps) {
  const RunResult reference =
      run_at(make_resident, ExecPath::Compiled, 1, steps);
  for (ExecPath path : kAllExecPaths) {
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {
      expect_identical(reference, run_at(make_batched, path, threads, steps),
                       path, threads);
    }
  }
}

/// Caps the 512 MB chip at `blocks` PIM blocks to force batching.
pim::ChipConfig capped_chip(std::uint32_t blocks) {
  pim::ChipConfig chip = pim::chip_512mb();
  chip.block_limit = blocks;
  return chip;
}

TEST(BatchConformance, PeriodicAcousticOneSliceWindow) {
  // 4 slices of 16 elements; a 32-block cap leaves a 1-slice window +
  // staging slice, so every Y face crosses a window boundary and slice 0
  // takes the periodic restaging path.
  const Problem problem{ProblemKind::Acoustic, 2, 3};
  const auto resident = [&] {
    return std::make_unique<PimSimulation>(problem, ExpansionMode::None,
                                           pim::chip_512mb());
  };
  const auto batched = [&] {
    return std::make_unique<PimSimulation>(problem, ExpansionMode::None,
                                           capped_chip(32));
  };
  expect_batch_conformance(resident, batched, 2);
}

TEST(BatchConformance, WindowBoundaryYFluxRegression) {
  // 48 blocks hold three 16-block slices: a 2-slice window + staging
  // slice. The window boundary lands between slices 1 and 2, so the
  // (1,2) and (3,0) Y pairings exercise the Fig. 7 crossing and wrap
  // steps while the (0,1) and (2,3) pairings stay in-window — the mixed
  // case a uniform window hides.
  const Problem problem{ProblemKind::Acoustic, 2, 3};
  const auto resident = [&] {
    return std::make_unique<PimSimulation>(problem, ExpansionMode::None,
                                           pim::chip_512mb());
  };
  const auto batched = [&] {
    return std::make_unique<PimSimulation>(problem, ExpansionMode::None,
                                           capped_chip(48));
  };
  const RunResult reference = run_at(resident, ExecPath::Compiled, 1, 1);
  for (ExecPath path : kAllExecPaths) {
    expect_identical(reference, run_at(batched, path, 1, 1), path, 1);
  }
}

TEST(BatchConformance, ReflectiveAcousticBatched) {
  // Reflective walls: no wrap step, no slice-0 restaging; edge slices
  // apply their boundary Y faces in-window.
  const Problem problem{ProblemKind::Acoustic, 2, 3};
  const auto resident = [&] {
    return std::make_unique<PimSimulation>(problem, ExpansionMode::None,
                                           pim::chip_512mb(),
                                           Boundary::Reflective);
  };
  const auto batched = [&] {
    return std::make_unique<PimSimulation>(problem, ExpansionMode::None,
                                           capped_chip(32),
                                           Boundary::Reflective);
  };
  expect_batch_conformance(resident, batched, 1);
}

TEST(BatchConformance, ExpandedElasticBatched) {
  // 3-block elastic expansion: residency windows move multi-block
  // elements (48 blocks per 16-element slice), and intra-element
  // staging transfers must resolve through the virtual table.
  const Problem problem{ProblemKind::ElasticCentral, 2, 3};
  const auto resident = [&] {
    return std::make_unique<PimSimulation>(problem, ExpansionMode::Elastic3,
                                           pim::chip_512mb());
  };
  const auto batched = [&] {
    return std::make_unique<PimSimulation>(problem, ExpansionMode::Elastic3,
                                           capped_chip(96));
  };
  const RunResult reference = run_at(resident, ExecPath::Compiled, 1, 1);
  for (ExecPath path : kAllExecPaths) {
    expect_identical(reference, run_at(batched, path, 0, 1), path, 0);
  }
}

TEST(BatchConformance, ExecutedStagingMatchesSchedule) {
  const Problem problem{ProblemKind::Acoustic, 2, 3};
  for (ExecPath path : kAllExecPaths) {
    SCOPED_TRACE(to_string(path));
    PimSimulation sim(problem, ExpansionMode::None, capped_chip(32));
    sim.set_exec_path(path);
    ASSERT_FALSE(sim.residency().is_resident());
    sim.load_state(seeded_state(sim));
    const int steps = 2;
    for (int i = 0; i < steps; ++i) {
      sim.step(2.0e-4);
    }

    // The executed load/store counts are the schedule's counts, replayed
    // once per RK stage — the same single source (count_staging) the
    // analytic estimator prices.
    const auto& residency = sim.residency();
    const StagingCounts counts =
        count_staging(residency.schedule(), residency.slice_bytes());
    const std::uint64_t passes =
        static_cast<std::uint64_t>(dg::Lsrk54::kNumStages) * steps;
    EXPECT_EQ(counts.slice_loads, residency.schedule().total_loads());
    EXPECT_EQ(counts.slice_stores, residency.schedule().total_stores());
    EXPECT_EQ(residency.slice_loads(), counts.slice_loads * passes);
    EXPECT_EQ(residency.slice_stores(), counts.slice_stores * passes);
    EXPECT_EQ(residency.bytes_staged(), counts.bytes * passes);

    // Staging lands in the hbm channel, outside the compute total.
    EXPECT_GT(sim.costs().hbm.time.value(), 0.0);
    EXPECT_GT(sim.costs().hbm.energy.value(), 0.0);

    // Periodic 4-slice mesh with a 1-slice window: slice 0 moves twice.
    EXPECT_EQ(residency.schedule().total_loads(), 5u);
    EXPECT_EQ(residency.schedule().peak_resident(), 2u);
  }
}

TEST(BatchConformance, BackingStoreArrivesZeroed) {
  // State load fills only the variable and residual columns; every other
  // column a slice carries onto the chip comes from the backing store as
  // allocated, and must read zero like the fresh blocks a resident run
  // starts from. Dirty one store, drop it, and the next of the same size
  // must read zero.
  const mesh::StructuredMesh mesh(2, 1.0, Boundary::Periodic);
  pim::Chip chip(capped_chip(32));
  constexpr std::uint32_t kRowsPerBlock = 27;  // n1d = 3
  const auto make = [&] {
    return std::make_unique<ResidencyManager>(chip, mesh, 1, kRowsPerBlock,
                                              Bytes{1});
  };
  auto first = make();
  ASSERT_FALSE(first->is_resident());
  for (std::uint32_t v = 0; v < mesh.num_elements(); ++v) {
    for (std::uint32_t c = 0; c < pim::Block::kWords; ++c) {
      for (float& x : first->backing_column(v, c)) {
        x = 1.0f + static_cast<float>(v);
      }
    }
  }
  first.reset();

  auto second = make();
  for (std::uint32_t v = 0; v < mesh.num_elements(); ++v) {
    for (std::uint32_t c = 0; c < pim::Block::kWords; ++c) {
      for (float x : second->backing_column(v, c)) {
        ASSERT_EQ(x, 0.0f) << "virtual block " << v << ", column " << c;
      }
    }
  }
}

TEST(BatchConformance, ResidentRunsPriceStateMovement) {
  // Fully resident: the only HBM traffic is the initial state load and
  // the final readback, charged to the hbm channel (not total()).
  const Problem problem{ProblemKind::Acoustic, 1, 3};
  for (ExecPath path : kAllExecPaths) {
    SCOPED_TRACE(to_string(path));
    PimSimulation sim(problem, ExpansionMode::None, pim::chip_512mb());
    sim.set_exec_path(path);
    ASSERT_TRUE(sim.residency().is_resident());
    EXPECT_EQ(sim.costs().hbm.time.value(), 0.0);
    sim.load_state(seeded_state(sim));
    const double after_load = sim.costs().hbm.time.value();
    EXPECT_GT(after_load, 0.0);
    sim.step(2.0e-4);
    EXPECT_EQ(sim.costs().hbm.time.value(), after_load);  // no staging
    (void)sim.read_state();
    EXPECT_GT(sim.costs().hbm.time.value(), after_load);
    const auto total = sim.costs().total();
    EXPECT_EQ(total.time.value(), sim.costs().volume.time.value() +
                                      sim.costs().flux.time.value() +
                                      sim.costs().integration.time.value() +
                                      sim.costs().network.time.value());
  }
}

}  // namespace
}  // namespace wavepim::mapping
