#include "mapping/simulation.h"

#include <gtest/gtest.h>

#include "common/statistics.h"
#include "dg/solver.h"
#include "dg/sources.h"

namespace wavepim::mapping {
namespace {

using dg::ProblemKind;
using mesh::Boundary;

/// Steps the CPU solver, then on every execution tier a fresh
/// PimSimulation(sim_args...) from the same initial state, and expects
/// each tier within 1e-4 of the CPU field: the relative L-inf error over
/// the whole state, normalised by the global field magnitude
/// (per-variable normalisation would divide by zero for identically-zero
/// components like the transverse velocity of a plane wave).
template <typename Solver, typename... SimArgs>
void expect_pim_matches_cpu(Solver& cpu, int steps,
                            const SimArgs&... sim_args) {
  const double dt = cpu.stable_dt();
  const dg::Field initial = cpu.state();
  for (int i = 0; i < steps; ++i) {
    cpu.step(dt);
  }
  for (ExecPath path : kAllExecPaths) {
    SCOPED_TRACE(to_string(path));
    PimSimulation pim(sim_args...);
    pim.set_exec_path(path);
    pim.load_state(initial);
    for (int i = 0; i < steps; ++i) {
      pim.step(dt);
    }
    const dg::Field got = pim.read_state();
    EXPECT_LT(relative_linf_error(got.flat(), cpu.state().flat()), 1e-4);
  }
}

TEST(PimSimulation, AcousticMatchesCpuSolverPeriodic) {
  const Problem problem{ProblemKind::Acoustic, 1, 3};
  mesh::StructuredMesh mesh(1, 1.0, Boundary::Periodic);
  dg::MaterialField<dg::AcousticMaterial> mats(mesh.num_elements(), {});
  dg::AcousticSolver cpu(mesh, std::move(mats),
                         {.n1d = 3, .flux = dg::FluxType::Upwind});
  init_acoustic_plane_wave(cpu, mesh::Axis::X, 1);

  expect_pim_matches_cpu(cpu, 5, problem, ExpansionMode::None,
                         pim::chip_512mb());
}

TEST(PimSimulation, AcousticMatchesCpuSolverReflective) {
  const Problem problem{ProblemKind::Acoustic, 1, 3};
  mesh::StructuredMesh mesh(1, 1.0, Boundary::Reflective);
  dg::MaterialField<dg::AcousticMaterial> mats(mesh.num_elements(), {});
  dg::AcousticSolver cpu(mesh, std::move(mats),
                         {.n1d = 3, .flux = dg::FluxType::Upwind});
  init_acoustic_gaussian_pulse(cpu, {0.5, 0.5, 0.5}, 0.2, 1.0);

  expect_pim_matches_cpu(cpu, 5, problem, ExpansionMode::None,
                         pim::chip_512mb(), Boundary::Reflective);
}

TEST(PimSimulation, AcousticExpansionMatchesNaive) {
  // The 4-block expansion must compute the same fields as the one-block
  // layout (Fig. 8/9 correctness).
  const Problem problem{ProblemKind::Acoustic, 1, 3};
  mesh::StructuredMesh mesh(1, 1.0, Boundary::Periodic);
  dg::MaterialField<dg::AcousticMaterial> mats(mesh.num_elements(), {});
  dg::AcousticSolver cpu(mesh, std::move(mats),
                         {.n1d = 3, .flux = dg::FluxType::Upwind});
  init_acoustic_plane_wave(cpu, mesh::Axis::Y, 1);

  expect_pim_matches_cpu(cpu, 5, problem, ExpansionMode::Acoustic4,
                         pim::chip_512mb());
}

TEST(PimSimulation, ElasticCentralMatchesCpuSolver) {
  const Problem problem{ProblemKind::ElasticCentral, 1, 3};
  mesh::StructuredMesh mesh(1, 1.0, Boundary::Periodic);
  dg::MaterialField<dg::ElasticMaterial> mats(mesh.num_elements(),
                                              {2.0, 1.0, 1.0});
  dg::ElasticSolver cpu(mesh, std::move(mats),
                        {.n1d = 3, .flux = dg::FluxType::Central});
  init_elastic_plane_p_wave(cpu, 1);

  expect_pim_matches_cpu(cpu, 5, problem, ExpansionMode::Elastic3,
                         pim::chip_512mb());
}

TEST(PimSimulation, ElasticRiemannMatchesCpuSolver) {
  const Problem problem{ProblemKind::ElasticRiemann, 1, 3};
  mesh::StructuredMesh mesh(1, 1.0, Boundary::Periodic);
  dg::MaterialField<dg::ElasticMaterial> mats(mesh.num_elements(),
                                              {2.0, 1.0, 1.0});
  dg::ElasticSolver cpu(mesh, std::move(mats),
                        {.n1d = 3, .flux = dg::FluxType::Upwind});
  init_elastic_plane_s_wave(cpu, 1);

  expect_pim_matches_cpu(cpu, 5, problem, ExpansionMode::Elastic3,
                         pim::chip_512mb());
}

TEST(PimSimulation, ElasticNineBlockMatchesThreeBlock) {
  const Problem problem{ProblemKind::ElasticCentral, 1, 3};
  mesh::StructuredMesh mesh(1, 1.0, Boundary::Periodic);
  dg::MaterialField<dg::ElasticMaterial> mats(mesh.num_elements(),
                                              {2.0, 1.0, 1.0});
  dg::ElasticSolver cpu(mesh, std::move(mats),
                        {.n1d = 3, .flux = dg::FluxType::Central});
  init_elastic_plane_p_wave(cpu, 1);

  expect_pim_matches_cpu(cpu, 3, problem, ExpansionMode::Elastic9,
                         pim::chip_512mb());
}

TEST(PimSimulation, CostsAccumulateAcrossSteps) {
  const Problem problem{ProblemKind::Acoustic, 1, 3};
  for (ExecPath path : kAllExecPaths) {
    SCOPED_TRACE(to_string(path));
    PimSimulation pim(problem, ExpansionMode::None, pim::chip_512mb());
    pim.set_exec_path(path);
    dg::Field u(8, 4, 27);
    pim.load_state(u);
    pim.step(1e-3);
    const auto after_one = pim.costs().total();
    EXPECT_GT(after_one.time.value(), 0.0);
    EXPECT_GT(after_one.energy.value(), 0.0);
    pim.step(1e-3);
    const auto after_two = pim.costs().total();
    EXPECT_NEAR(after_two.time.value(), 2 * after_one.time.value(), 1e-9);
    // Volume dominates flux network on this tiny mesh, but all kernels
    // ran.
    EXPECT_GT(pim.costs().volume.time.value(), 0.0);
    EXPECT_GT(pim.costs().flux.time.value(), 0.0);
    EXPECT_GT(pim.costs().integration.time.value(), 0.0);
    EXPECT_GT(pim.costs().network.time.value(), 0.0);
  }
}

TEST(PimSimulation, ExpansionReducesVolumeTime) {
  const Problem problem{ProblemKind::Acoustic, 1, 3};
  for (ExecPath path : kAllExecPaths) {
    SCOPED_TRACE(to_string(path));
    PimSimulation naive(problem, ExpansionMode::None, pim::chip_512mb());
    PimSimulation expanded(problem, ExpansionMode::Acoustic4,
                           pim::chip_512mb());
    naive.set_exec_path(path);
    expanded.set_exec_path(path);
    dg::Field u(8, 4, 27);
    naive.load_state(u);
    expanded.load_state(u);
    naive.step(1e-3);
    expanded.step(1e-3);
    // §6.2.1: the four-block implementation achieves better performance
    // at the price of more energy (duplication + transfers).
    EXPECT_LT(expanded.costs().volume.time.value(),
              naive.costs().volume.time.value());
    EXPECT_GT(expanded.costs().total().energy.value(),
              naive.costs().total().energy.value());
  }
}

TEST(PimSimulation, RejectsProblemsWhereTwoSlicesCannotFit) {
  // Level 5 elastic at 3 blocks/element needs 98k blocks; 512 MB has
  // 4096, and a single 32x32-element Y-slice already takes 3072 — the
  // batched window (one slice + staging slice) cannot fit. The error
  // must diagnose the capacity and name a config that would apply.
  const Problem problem{ProblemKind::ElasticCentral, 5, 8};
  try {
    PimSimulation sim(problem, ExpansionMode::Elastic3, pim::chip_512mb());
    FAIL() << "expected CapacityError";
  } catch (const CapacityError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("98304 blocks"), std::string::npos) << what;
    EXPECT_NE(what.find("resident Y-slices"), std::string::npos) << what;
    EXPECT_NE(what.find("resident slices applies"), std::string::npos)
        << what;
  }
}

TEST(PimSimulation, AcceptsOversizedProblemsViaBatching) {
  // 64 acoustic elements need 64 blocks; cap the chip at 40 so only two
  // 16-block Y-slices fit. The simulation must construct in batched
  // mode instead of rejecting, with a 1-slice window + staging slice.
  const Problem problem{ProblemKind::Acoustic, 2, 3};
  pim::ChipConfig chip = pim::chip_512mb();
  chip.block_limit = 40;
  PimSimulation sim(problem, ExpansionMode::None, chip);
  EXPECT_FALSE(sim.residency().is_resident());
  EXPECT_EQ(sim.residency().schedule().resident_slices, 1u);
  EXPECT_EQ(sim.residency().schedule().peak_resident(), 2u);
}

TEST(PimSimulation, HeterogeneousAcousticMatchesCpuSolver) {
  // Impedance-contrast medium: the per-face LUT constants differ across
  // the interface, exercising the heterogeneous probe path.
  const Problem problem{ProblemKind::Acoustic, 1, 3};
  mesh::StructuredMesh mesh(1, 1.0, Boundary::Periodic);
  dg::MaterialField<dg::AcousticMaterial> mats(mesh.num_elements(), {});
  for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
    if (mesh.coords_of(e)[0] == 1) {
      mats.set(e, {.kappa = 4.0, .rho = 2.0});
    }
  }
  dg::MaterialField<dg::AcousticMaterial> cpu_mats = mats;
  dg::AcousticSolver cpu(mesh, std::move(cpu_mats),
                         {.n1d = 3, .flux = dg::FluxType::Upwind});
  init_acoustic_gaussian_pulse(cpu, {0.25, 0.5, 0.5}, 0.15, 1.0);

  expect_pim_matches_cpu(cpu, 5, problem, ExpansionMode::None,
                         pim::chip_512mb(), mats);
}

TEST(PimSimulation, HeterogeneousElasticMatchesCpuSolver) {
  const Problem problem{ProblemKind::ElasticRiemann, 1, 3};
  mesh::StructuredMesh mesh(1, 1.0, Boundary::Reflective);
  dg::MaterialField<dg::ElasticMaterial> mats(mesh.num_elements(),
                                              {2.0, 1.0, 1.0});
  for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
    if (mesh.coords_of(e)[1] == 1) {
      mats.set(e, {0.5, 0.25, 1.3});  // soft top layer
    }
  }
  dg::MaterialField<dg::ElasticMaterial> cpu_mats = mats;
  dg::ElasticSolver cpu(mesh, std::move(cpu_mats),
                        {.n1d = 3, .flux = dg::FluxType::Upwind});
  // Kick with a localized velocity perturbation.
  for (std::size_t e = 0; e < cpu.state().num_elements(); ++e) {
    for (std::size_t n = 0; n < 27; ++n) {
      cpu.state().value(e, dg::ElasticPhysics::Vz, n) =
          static_cast<float>(0.01 * ((e * 31 + n * 7) % 13));
    }
  }

  expect_pim_matches_cpu(cpu, 4, problem, ExpansionMode::Elastic3,
                         pim::chip_512mb(), mats, Boundary::Reflective);
}

TEST(PimSimulation, MaterialKindMismatchRejected) {
  mesh::StructuredMesh mesh(1, 1.0, Boundary::Periodic);
  dg::MaterialField<dg::AcousticMaterial> mats(mesh.num_elements(), {});
  EXPECT_THROW(PimSimulation({ProblemKind::ElasticCentral, 1, 3},
                             ExpansionMode::Elastic3, pim::chip_512mb(),
                             mats),
               PreconditionError);
}

TEST(PimSimulation, LoadReadRoundTrip) {
  const Problem problem{ProblemKind::Acoustic, 1, 3};
  PimSimulation pim(problem, ExpansionMode::None, pim::chip_512mb());
  dg::Field u(8, 4, 27);
  for (std::size_t e = 0; e < 8; ++e) {
    for (std::size_t v = 0; v < 4; ++v) {
      for (std::size_t n = 0; n < 27; ++n) {
        u.value(e, v, n) = static_cast<float>(e + 10 * v) + 0.01f * n;
      }
    }
  }
  pim.load_state(u);
  const dg::Field back = pim.read_state();
  EXPECT_EQ(relative_linf_error(back.flat(), u.flat()), 0.0);
}

}  // namespace
}  // namespace wavepim::mapping
