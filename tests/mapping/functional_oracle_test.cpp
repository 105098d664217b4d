// FunctionalOracle: the reference the compiled execution plan answers to.
// One resident RK step runs phase by phase on two chips seeded with the
// same state. The oracle side re-lowers every element in every phase
// (emit_volume, emit_flux_face, emit_integration_stage) and executes the
// calls one at a time through a FunctionalSink, so neither the program
// cache nor the plan's op arrays, batched ledger charges or pre-merged
// transfer lists take part in it. The plan side runs
// ExecutionPlan::run_volume / run_flux_group / run_integration. After
// every phase both chips must agree bit for bit on every stored word and
// every block ledger, and the phase's transfer lists and deferred
// neighbour charges must match the plan's.
//
// The simulator's two tiers are checked against each other (and against
// the serial compiled run) by the sim-level suites; this suite is what
// ties the compiled plan, and so both tiers, to the direct lowering.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/float_bits.h"
#include "dg/op_counter.h"
#include "dg/physics.h"
#include "dg/rk.h"
#include "mapping/coefficients.h"
#include "mapping/exec_plan.h"
#include "mapping/residency.h"
#include "support/functional_sink.h"
#include "support/layered_medium.h"

namespace wavepim::mapping {
namespace {

using dg::ProblemKind;
using mesh::Boundary;

/// The material layout of a case: uniform (the setup's coefficients), or
/// two horizontal layers of the problem's physics (support/layered_medium.h).
enum class Medium { Uniform, Layered };

struct OracleCase {
  Problem problem;
  ExpansionMode mode;
  Boundary boundary = Boundary::Periodic;
  Medium medium = Medium::Uniform;
};

MediumCoeffs probe_medium(const OracleCase& c,
                          const mesh::StructuredMesh& mesh) {
  return c.medium == Medium::Layered ? layered_medium(c.problem.kind, mesh)
                                     : MediumCoeffs{};
}

void expect_same_transfers(const std::vector<pim::Transfer>& oracle,
                           const std::vector<pim::Transfer>& plan,
                           const char* phase) {
  ASSERT_EQ(oracle.size(), plan.size()) << phase << " transfer count";
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(oracle[i].src_block, plan[i].src_block) << phase << " #" << i;
    EXPECT_EQ(oracle[i].dst_block, plan[i].dst_block) << phase << " #" << i;
    EXPECT_EQ(oracle[i].words, plan[i].words) << phase << " #" << i;
  }
}

void expect_same_costs(const pim::OpCost& oracle, const pim::OpCost& plan,
                       const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(oracle.time.value()),
            std::bit_cast<std::uint64_t>(plan.time.value()))
      << what << " time";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(oracle.energy.value()),
            std::bit_cast<std::uint64_t>(plan.energy.value()))
      << what << " energy";
}

class Harness {
 public:
  explicit Harness(const OracleCase& c)
      : mesh_(c.problem.refinement_level, 1.0, c.boundary),
        setup_(c.problem, c.mode, mesh_.element_size()),
        coeffs_(probe_medium(c, mesh_)),
        bpe_(blocks_per_element(c.mode)),
        num_blocks_(mesh_.num_elements() * bpe_),
        oracle_chip_(pim::chip_512mb()),
        plan_chip_(pim::chip_512mb()) {
    // The simulator's compact row extent: node rows in whole 8-row groups.
    const auto nodes = static_cast<std::uint32_t>(setup_.ref().num_nodes());
    for (pim::Chip* chip : {&oracle_chip_, &plan_chip_}) {
      chip->set_row_extent((nodes + 7) / 8 * 8);
      chip->ensure_blocks(num_blocks_);
    }
    // Identical non-trivial state in every stored word of both chips,
    // scratch columns included; set() is cost-free.
    const std::uint32_t rows = plan_chip_.row_extent();
    for (std::uint32_t b = 0; b < num_blocks_; ++b) {
      for (std::uint32_t c = 0; c < pim::Block::kWords; ++c) {
        for (std::uint32_t r = 0; r < rows; ++r) {
          const float v =
              0.001f * static_cast<float>((b * 263 + c * 29 + r * 7) % 211) -
              0.1f;
          oracle_chip_.block(b).set(r, c, v);
          plan_chip_.block(b).set(r, c, v);
        }
      }
    }

    pricing_ =
        SinkPricing::make(oracle_chip_.arith(), oracle_chip_.interconnect());
  }

  /// Runs one RK step phase by phase, comparing after each phase.
  void run_step(float dt) {
    ProgramCache cache(setup_, mesh_, overrides(coeffs_.volume),
                       overrides(coeffs_.flux));
    ExecutionPlan plan(cache, mesh_, Placement(bpe_), pricing_,
                       plan_chip_.row_extent());
    FunctionalSink sink(oracle_chip_, mesh_, Placement(bpe_), pricing_);
    for (int stage = 0; stage < dg::Lsrk54::kNumStages; ++stage) {
      SCOPED_TRACE("stage " + std::to_string(stage));
      volume_phase(plan, sink);
      flux_phase(plan, sink);
      integration_phase(plan, sink, stage, dt);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }

 private:
  template <typename T>
  static const std::vector<T>* overrides(const std::vector<T>& v) {
    return v.empty() ? nullptr : &v;
  }

  const VolumeCoeffs* volume_override(mesh::ElementId e) const {
    return coeffs_.volume.empty() ? nullptr : &coeffs_.volume[e];
  }
  const FluxCoeffs* flux_override(mesh::ElementId e, mesh::Face f) const {
    return coeffs_.flux.empty() ? nullptr
                                : &coeffs_.flux[e][mesh::index_of(f)];
  }

  void volume_phase(const ExecutionPlan& plan, FunctionalSink& sink) {
    std::vector<pim::Transfer> transfers;
    for (mesh::ElementId e = 0; e < mesh_.num_elements(); ++e) {
      sink.bind(e);
      emit_volume(setup_, sink, volume_override(e));
      const auto collected = sink.take_transfers();
      transfers.insert(transfers.end(), collected.begin(), collected.end());
      plan.run_volume(plan_chip_, e);
    }
    compare_chips("volume");
    expect_same_transfers(transfers, plan.volume_transfers(), "volume");
  }

  void flux_phase(const ExecutionPlan& plan, FunctionalSink& sink) {
    // Each element applies its face groups in the schedule's canonical
    // order. Slot k runs every element's k-th group, so each block's
    // ledger holds exactly one group's charges when it is compared —
    // the granularity at which the plan folds them.
    using GroupTransfers = std::array<std::vector<pim::Transfer>, 4>;
    std::vector<GroupTransfers> transfers(mesh_.num_elements());
    std::vector<std::array<std::vector<FunctionalSink::DeferredCharge>, 6>>
        charges(mesh_.num_elements());
    sink.defer_remote_charges(true);
    for (std::size_t slot = 0; slot < kNumFaceGroups; ++slot) {
      for (mesh::ElementId e = 0; e < mesh_.num_elements(); ++e) {
        const FaceGroup group =
            canonical_group_order(y_minus_deferred(mesh_, e))[slot];
        sink.bind(e);
        for (const mesh::Face f : faces_of(group)) {
          const bool boundary = !mesh_.neighbor(e, f).has_value();
          emit_flux_face(setup_, f, boundary, sink, flux_override(e, f));
        }
        transfers[e][slot] = sink.take_transfers();
        auto pulled = sink.take_remote_charges();
        for (std::size_t f = 0; f < pulled.size(); ++f) {
          charges[e][f].insert(charges[e][f].end(), pulled[f].begin(),
                               pulled[f].end());
        }
        plan.run_flux_group(plan_chip_, e, group);
      }
      compare_chips("flux slot " + std::to_string(slot));
    }
    sink.defer_remote_charges(false);

    // Canonical-order merge: element-ascending, each element's groups in
    // its application order.
    std::vector<pim::Transfer> merged;
    for (const auto& per_element : transfers) {
      for (const auto& list : per_element) {
        merged.insert(merged.end(), list.begin(), list.end());
      }
    }
    expect_same_transfers(merged, plan.flux_transfers(), "flux");

    // Phase B: the deferred neighbour-side reads, folded through
    // rows_read on the oracle side and settle_pull on the plan side, into
    // zeroed per-block accumulators in the same (element, face) order.
    std::vector<pim::OpCost> oracle_acc(num_blocks_);
    std::vector<pim::OpCost> plan_acc(num_blocks_);
    for (mesh::ElementId e = 0; e < mesh_.num_elements(); ++e) {
      for (const mesh::Face f : mesh::kAllFaces) {
        for (const auto& c : charges[e][mesh::index_of(f)]) {
          oracle_acc[c.block] += pricing_.rows_read(c.words);
        }
        plan.settle_pull(plan_acc.data(), e, f);
      }
    }
    for (std::uint32_t b = 0; b < num_blocks_; ++b) {
      expect_same_costs(oracle_acc[b], plan_acc[b],
                        "settled block " + std::to_string(b));
    }
  }

  void integration_phase(ExecutionPlan& plan, FunctionalSink& sink,
                         int stage, float dt) {
    const ExecutionPlan::StreamPlan& stream = plan.integration(stage, dt);
    for (mesh::ElementId e = 0; e < mesh_.num_elements(); ++e) {
      sink.bind(e);
      emit_integration_stage(setup_, stage, dt, sink);
      EXPECT_TRUE(sink.take_transfers().empty());
      plan.run_integration(plan_chip_, e, stream);
    }
    compare_chips("integration");
  }

  /// Every stored word and every block ledger, bit for bit; then clears
  /// the ledgers, as the simulator folds them at each step boundary.
  void compare_chips(const std::string& phase) {
    const std::uint32_t rows = plan_chip_.row_extent();
    for (std::uint32_t b = 0; b < num_blocks_; ++b) {
      pim::Block& oracle = oracle_chip_.block(b);
      pim::Block& plan = plan_chip_.block(b);
      expect_same_costs(oracle.consumed(), plan.consumed(),
                        phase + " ledger of block " + std::to_string(b));
      for (std::uint32_t c = 0; c < pim::Block::kWords; ++c) {
        for (std::uint32_t r = 0; r < rows; ++r) {
          ASSERT_EQ(canonical_bits(oracle.at(r, c)),
                    canonical_bits(plan.at(r, c)))
              << phase << ": block " << b << " word (" << r << ", " << c
              << ")";
        }
      }
      oracle.reset_cost();
      plan.reset_cost();
    }
  }

  mesh::StructuredMesh mesh_;
  ElementSetup setup_;
  MediumCoeffs coeffs_;
  std::uint32_t bpe_;
  std::uint32_t num_blocks_;
  pim::Chip oracle_chip_;
  pim::Chip plan_chip_;
  SinkPricing pricing_;
};

void expect_plan_matches_oracle(const OracleCase& c) {
  Harness harness(c);
  harness.run_step(2.0e-4f);
}

TEST(FunctionalOracle, UniformPeriodic) {
  // One shape class, every face exchanging.
  expect_plan_matches_oracle(
      {Problem{ProblemKind::Acoustic, 2, 3}, ExpansionMode::None});
}

TEST(FunctionalOracle, HeterogeneousAcoustic) {
  // Two material layers: the cache keys its streams by the interned
  // per-element and per-face-pair coefficient sets.
  expect_plan_matches_oracle({Problem{ProblemKind::Acoustic, 2, 3},
                              ExpansionMode::None, Boundary::Periodic,
                              Medium::Layered});
}

TEST(FunctionalOracle, ReflectiveElastic) {
  // Reflective walls: boundary-face classes whose wall faces pull
  // nothing, under a 3-block expansion with intra-element staging.
  expect_plan_matches_oracle({Problem{ProblemKind::ElasticCentral, 1, 3},
                              ExpansionMode::Elastic3,
                              Boundary::Reflective});
}

TEST(FunctionalOracle, SelfNeighbour) {
  // Level 0 periodic: one element that is its own neighbour on all six
  // faces.
  expect_plan_matches_oracle(
      {Problem{ProblemKind::Acoustic, 0, 3}, ExpansionMode::None});
}

TEST(FunctionalOracle, ExpandedAcousticSelfNeighbour) {
  // The self-neighbour case under the 4-block expansion: inter-element
  // Moves resolve to the element's own block base.
  expect_plan_matches_oracle(
      {Problem{ProblemKind::Acoustic, 0, 3}, ExpansionMode::Acoustic4});
}

TEST(FunctionalOracle, ExpandedAcoustic) {
  // Fig. 8's axis split: intra-element transfers in every phase.
  expect_plan_matches_oracle(
      {Problem{ProblemKind::Acoustic, 1, 3}, ExpansionMode::Acoustic4});
}

TEST(FunctionalOracle, AcousticN4) {
  // From n1d = 4 on, gather and move windows are wider than at n1d = 3.
  expect_plan_matches_oracle(
      {Problem{ProblemKind::Acoustic, 1, 4}, ExpansionMode::None});
}

TEST(FunctionalOracle, ElasticCentralN4) {
  expect_plan_matches_oracle(
      {Problem{ProblemKind::ElasticCentral, 1, 4}, ExpansionMode::Elastic3});
}

TEST(FunctionalOracle, ElasticRiemannN4Reflective) {
  expect_plan_matches_oracle({Problem{ProblemKind::ElasticRiemann, 1, 4},
                              ExpansionMode::Elastic3,
                              Boundary::Reflective});
}

TEST(FunctionalOracle, LayeredElasticRiemannElastic9) {
  // The 9-block elastic expansion on a layered elastic medium with
  // reflective walls: probed interface and wall coefficients per face.
  expect_plan_matches_oracle({Problem{ProblemKind::ElasticRiemann, 1, 3},
                              ExpansionMode::Elastic9, Boundary::Reflective,
                              Medium::Layered});
}

}  // namespace
}  // namespace wavepim::mapping
