// Guards the core consistency contract: the CostSink's analytic tallies
// must equal the FunctionalSink's measured block ledgers for the same
// emission — otherwise the paper-scale estimator would drift away from
// the validated bit-true execution.
#include <gtest/gtest.h>

#include <vector>

#include "mapping/element_program.h"
#include "pim/chip.h"
#include "support/functional_sink.h"
#include "support/lut.h"

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
  const SinkPricing pricing =
      SinkPricing::make(chip.arith(), chip.interconnect());

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
  const SinkPricing pricing =
      SinkPricing::make(chip.arith(), chip.interconnect());

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

// The shipped Alg. 1 price of one LUT fetch against the oracle's
// block-level executor: a LUT at block 5 fetched from block 0 charges
// the compute block R_1, the switch leg and W_1, and the LUT block R_2.
// The two sums associate differently, so they agree to rounding.
TEST(SinkPricing, LutUnitMatchesAlgorithm1Execution) {
  pim::Chip chip(pim::chip_512mb());
  const SinkPricing pricing =
      SinkPricing::make(chip.arith(), chip.interconnect());

  pim::Block& compute = chip.block(0);
  pim::Block& lut_block = chip.block(5);
  const std::vector<float> contents = {0.5f, 0.25f, 0.125f};
  const pim::LookupTable table(/*block_id=*/5, contents, lut_block);
  lut_block.reset_cost();
  compute.set(3, 2, 1.0f);  // the in-block index
  const pim::LutInstructionFields fields{.opcode = pim::kLutOpcode,
                                         .row_id = 3,
                                         .offset_s = 2,
                                         .lut_block_id = 5,
                                         .offset_d = 7};
  EXPECT_EQ(pim::execute_lut(fields, compute, /*compute_block_id=*/0,
                             lut_block, table, chip.interconnect()),
            0.25f);

  const pim::OpCost charged = compute.consumed() + lut_block.consumed();
  EXPECT_DOUBLE_EQ(charged.time.value(), pricing.lut_unit.time.value());
  EXPECT_DOUBLE_EQ(charged.energy.value(), pricing.lut_unit.energy.value());
  // The switch leg is part of the price.
  EXPECT_GT(pricing.lut_unit.time.value(),
            (pricing.rows_read(2) + pricing.rows_written(1)).time.value());
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
