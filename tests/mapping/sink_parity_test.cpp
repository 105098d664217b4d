// Guards the core consistency contract: the CostSink's analytic tallies
// must equal the FunctionalSink's measured block ledgers for the same
// emission — otherwise the paper-scale estimator would drift away from
// the validated bit-true execution.
#include <gtest/gtest.h>

#include "mapping/element_program.h"
#include "support/functional_sink.h"
#include "pim/chip.h"

namespace wavepim::mapping {
namespace {

using dg::ProblemKind;

struct ParityCase {
  ProblemKind kind;
  ExpansionMode mode;
  const char* name;
};

class SinkParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(SinkParity, VolumeAndIntegrationCostsMatchFunctionalLedger) {
  const auto& param = GetParam();
  const Problem problem{param.kind, 1, 4};
  mesh::StructuredMesh mesh(1, 1.0, mesh::Boundary::Periodic);
  const ElementSetup setup(problem, param.mode, mesh.element_size());

  pim::Chip chip(pim::chip_512mb());
  SinkPricing pricing;
  pricing.model = &chip.arith();
  pricing.lut_unit = pricing.rows_read(2) + pricing.rows_written(1);

  const std::uint32_t bpe = blocks_per_element(param.mode);
  FunctionalSink functional(chip, mesh, Placement(bpe), pricing);
  CostSink cost(pricing, setup.num_groups());

  // Emit for one element through both sinks. Volume+Integration only:
  // their transfers stay within the element, so per-group ledgers are
  // directly comparable (flux charges neighbours, which the cost sink
  // folds into the representative element by symmetry).
  functional.bind(0);
  emit_volume(setup, functional);
  emit_integration_stage(setup, 2, 1e-3f, functional);
  emit_volume(setup, cost);
  emit_integration_stage(setup, 2, 1e-3f, cost);

  Seconds functional_max(0.0);
  Joules functional_energy(0.0);
  for (std::uint32_t g = 0; g < bpe; ++g) {
    const auto& ledger = chip.block(g).consumed();
    functional_max = std::max(functional_max, ledger.time);
    functional_energy += ledger.energy;
  }
  EXPECT_NEAR(cost.max_group_time().value(), functional_max.value(),
              1e-15 + 1e-9 * functional_max.value())
      << param.name;
  EXPECT_NEAR(cost.element_energy().value(), functional_energy.value(),
              1e-18 + 1e-9 * functional_energy.value())
      << param.name;
}

TEST_P(SinkParity, FluxEnergyMatchesOverFullPeriodicMesh) {
  // Over a periodic mesh every element plays source and destination, so
  // total functional energy equals elements x the representative tally.
  const auto& param = GetParam();
  const Problem problem{param.kind, 1, 3};
  mesh::StructuredMesh mesh(1, 1.0, mesh::Boundary::Periodic);
  const ElementSetup setup(problem, param.mode, mesh.element_size());

  pim::Chip chip(pim::chip_512mb());
  SinkPricing pricing;
  pricing.model = &chip.arith();
  pricing.lut_unit = pricing.rows_read(2) + pricing.rows_written(1);

  const std::uint32_t bpe = blocks_per_element(param.mode);
  FunctionalSink functional(chip, mesh, Placement(bpe), pricing);
  CostSink cost(pricing, setup.num_groups());

  for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
    functional.bind(e);
    for (mesh::Face f : mesh::kAllFaces) {
      emit_flux_face(setup, f, false, functional);
    }
  }
  for (mesh::Face f : mesh::kAllFaces) {
    emit_flux_face(setup, f, false, cost);
  }

  Joules functional_energy(0.0);
  for (std::uint32_t b = 0; b < mesh.num_elements() * bpe; ++b) {
    functional_energy += chip.block(b).consumed().energy;
  }
  const double expected =
      cost.element_energy().value() * mesh.num_elements();
  EXPECT_NEAR(functional_energy.value(), expected, 1e-9 * expected)
      << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SinkParity,
    ::testing::Values(
        ParityCase{ProblemKind::Acoustic, ExpansionMode::None, "acoustic-N"},
        ParityCase{ProblemKind::Acoustic, ExpansionMode::Acoustic4,
                   "acoustic-Ep"},
        ParityCase{ProblemKind::ElasticCentral, ExpansionMode::Elastic3,
                   "elastic-Er"},
        ParityCase{ProblemKind::ElasticRiemann, ExpansionMode::Elastic9,
                   "elastic-ErEp"}),
    [](const auto& info) {
      std::string n = info.param.name;
      for (auto& c : n) {
        if (c == '-') {
          c = '_';
        }
      }
      return n;
    });

}  // namespace
}  // namespace wavepim::mapping
