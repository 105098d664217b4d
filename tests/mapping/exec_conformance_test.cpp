// Conformance suite for the two execution tiers of PimSimulation
// (compiled plan -> word kernels). The word tier re-implements
// execution as vectorized FP32 kernels over the compiled streams, so
// this suite pins the contract: for every tested mesh and worker count,
// both tiers produce bit-identical nodal fields, cost channels,
// interconnect statistics, and full chip state (every word of every
// block, scratch columns included, folded into an FNV-1a hash) to the
// serial compiled run. The compiled plan itself answers to the
// functional oracle (functional_oracle_test.cpp), which re-lowers every
// element phase by phase.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/float_bits.h"
#include "common/parse.h"
#include "mapping/exec_plan.h"
#include "mapping/simulation.h"
#include "mapping/word_plan.h"
#include "support/functional_sink.h"
#include "support/scoped_env.h"

namespace wavepim::mapping {
namespace {

using dg::ProblemKind;
using mesh::Boundary;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, std::uint64_t word) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (word >> shift) & 0xFFu;
    h *= kFnvPrime;
  }
}

void fnv_mix(std::uint64_t& h, float v) {
  fnv_mix(h, std::uint64_t{canonical_bits(v)});
}

struct RunResult {
  std::vector<float> field;
  PimSimulation::Costs costs;
  PimSimulation::NetStats net;
  std::uint64_t chip_hash = kFnvOffset;  ///< every word of every block
  PimSimulation::WitnessStats witness;
};

/// Runs `steps` time steps through the given tier and worker count,
/// returning the readable field, the cost report, and a hash over the
/// complete chip state (which also covers scratch and trace columns the
/// field read-back never sees).
template <typename MakeSim>
RunResult run_at(MakeSim&& make_sim, ExecPath path, std::size_t threads,
                 int steps, std::uint32_t witness_interval = 0) {
  auto sim = make_sim();
  sim->set_num_threads(threads);
  sim->set_exec_path(path);
  sim->set_witness_interval(witness_interval);
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

  RunResult result{{out.flat().begin(), out.flat().end()},
                   sim->costs(),
                   sim->net_stats(),
                   kFnvOffset,
                   sim->witness_stats()};
  auto& chip = sim->chip();
  const std::uint32_t num_blocks =
      static_cast<std::uint32_t>(chip.num_allocated_blocks());
  const std::uint32_t rows =
      static_cast<std::uint32_t>(sim->setup().ref().num_nodes());
  for (std::uint32_t b = 0; b < num_blocks; ++b) {
    for (std::uint32_t c = 0; c < pim::Block::kWords; ++c) {
      const auto column = chip.block(b).column(c);
      for (std::uint32_t r = 0; r < rows; ++r) {
        fnv_mix(result.chip_hash, column[r]);
      }
    }
  }
  return result;
}

void expect_identical(const RunResult& a, const RunResult& b, ExecPath path,
                      std::size_t threads) {
  ASSERT_EQ(a.field.size(), b.field.size());
  for (std::size_t i = 0; i < a.field.size(); ++i) {
    ASSERT_EQ(canonical_bits(a.field[i]), canonical_bits(b.field[i]))
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
  EXPECT_EQ(a.net.transfers, b.net.transfers)
      << "transfer count diverged on " << to_string(path) << " at "
      << threads << " threads";
  EXPECT_EQ(a.net.words, b.net.words);
  EXPECT_EQ(a.net.serial_sum.value(), b.net.serial_sum.value());
  EXPECT_EQ(a.chip_hash, b.chip_hash)
      << "full chip state diverged on " << to_string(path) << " at "
      << threads << " threads";
}

/// The serial compiled run is the single reference every (tier x worker
/// count) combination compares against.
template <typename MakeSim>
void expect_exec_conformance(MakeSim&& make, int steps) {
  const RunResult reference = run_at(make, ExecPath::Compiled, 1, steps);
  for (ExecPath path : kAllExecPaths) {
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {
      expect_identical(reference, run_at(make, path, threads, steps), path,
                       threads);
    }
  }
}

TEST(ExecConformance, UniformPeriodic) {
  // One shape class, every face exchanging: the compiled plan's maximal
  // stream-sharing case.
  const auto make = [] {
    return std::make_unique<PimSimulation>(
        Problem{ProblemKind::Acoustic, 2, 3}, ExpansionMode::None,
        pim::chip_512mb());
  };
  expect_exec_conformance(make, 2);
}

TEST(ExecConformance, HeterogeneousAcoustic) {
  // Two material layers: multiple classes with distinct coefficient
  // constants interned in the arena; plan ops point into shared tables.
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
  expect_exec_conformance(make, 1);
}

TEST(ExecConformance, ReflectiveElastic) {
  // Reflective walls: boundary-face classes whose wall streams carry no
  // pulls (the plan's neighbour-base sentinel must never be dereferenced)
  // and a 3-block expansion exercising multi-group ledgers and
  // intra-element staging transfers.
  const auto make = [] {
    return std::make_unique<PimSimulation>(
        Problem{ProblemKind::ElasticCentral, 1, 3}, ExpansionMode::Elastic3,
        pim::chip_512mb(), Boundary::Reflective);
  };
  expect_exec_conformance(make, 2);
}

TEST(ExecConformance, ExpandedAcousticSelfNeighbour) {
  // Level 0 periodic under the 4-block expansion: the element is its own
  // neighbour on all six faces, so compiled inter-element Moves resolve
  // to the element's own block base.
  const auto make = [] {
    return std::make_unique<PimSimulation>(
        Problem{ProblemKind::Acoustic, 0, 3}, ExpansionMode::Acoustic4,
        pim::chip_512mb());
  };
  expect_exec_conformance(make, 2);
}

// ---- AVX2 fallback bridge ---------------------------------------------------
// The AVX2 engine has kernels for windows of 1-4 8-lane groups. At
// n1d = 4 (64 node rows) many windows span more, so those ops run their
// portable pim/word.h kernels through the fallback bridge, in stream
// position, interleaved with the vector ops. n1d <= 3 never reaches the
// bridge, so these runs are its only coverage. The word tier must still
// match the compiled tier on fields, full chip state and every cost
// channel, with the witness re-checking every phase. Hosts without
// AVX2 take the portable executor alone, and
// WordEngines.PortableMatchesAvx2PerStream pins the two executors
// against each other on AVX2 hosts.

template <typename MakeSim>
void expect_word_matches_compiled_with_witness(MakeSim&& make) {
  const RunResult reference = run_at(make, ExecPath::Compiled, 1, 1);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const RunResult word =
        run_at(make, ExecPath::Word, threads, 1, /*witness_interval=*/1);
    expect_identical(reference, word, ExecPath::Word, threads);
    EXPECT_GT(word.witness.checks, 0u);
    EXPECT_EQ(word.witness.mismatches, 0u);
  }

  auto sim = make();
  sim->set_exec_path(ExecPath::Word);
  sim->step(2.0e-4);
  const WordPlan* plan = sim->word_plan();
  ASSERT_NE(plan, nullptr);
  if (wordavx::supported()) {
    std::size_t fallbacks = 0;
    const auto count = [&](const WordPlan::WordStream& s) {
      for (const auto& a : s.avx.ops) {
        fallbacks += a.kind == wordavx::AvxOp::Kind::Fallback ? 1 : 0;
      }
    };
    for (std::uint32_t cls = 0; cls < plan->num_classes(); ++cls) {
      count(plan->volume_stream(cls));
      for (std::uint32_t g = 0; g < kNumFaceGroups; ++g) {
        count(plan->flux_stream(cls, static_cast<FaceGroup>(g)));
      }
    }
    EXPECT_GT(fallbacks, 0u) << "no op took the fallback bridge";
  }
}

TEST(ExecConformance, FallbackBridgeAcousticN4) {
  expect_word_matches_compiled_with_witness([] {
    return std::make_unique<PimSimulation>(
        Problem{ProblemKind::Acoustic, 1, 4}, ExpansionMode::None,
        pim::chip_512mb());
  });
}

TEST(ExecConformance, FallbackBridgeElasticCentralN4) {
  expect_word_matches_compiled_with_witness([] {
    return std::make_unique<PimSimulation>(
        Problem{ProblemKind::ElasticCentral, 1, 4}, ExpansionMode::Elastic3,
        pim::chip_512mb());
  });
}

TEST(ExecConformance, FallbackBridgeElasticRiemannN4) {
  expect_word_matches_compiled_with_witness([] {
    return std::make_unique<PimSimulation>(
        Problem{ProblemKind::ElasticRiemann, 1, 4}, ExpansionMode::Elastic3,
        pim::chip_512mb(), Boundary::Reflective);
  });
}

TEST(ExecConformance, SetterSelectsTier) {
  // The tier plumbing the benches and tests use: a new simulation runs
  // the word tier, and the explicit setter selects the compiled one.
  PimSimulation sim(Problem{ProblemKind::Acoustic, 1, 3},
                    ExpansionMode::None, pim::chip_512mb());
  EXPECT_EQ(sim.exec_path(), ExecPath::Word);
  sim.set_exec_path(ExecPath::Compiled);
  EXPECT_EQ(sim.exec_path(), ExecPath::Compiled);
  EXPECT_EQ(sim.execution_plan(), nullptr);
  sim.step(1.0e-4);
  ASSERT_NE(sim.execution_plan(), nullptr);
  EXPECT_GE(sim.execution_plan()->num_classes(), 1u);
}

TEST(ExecConformance, WitnessCadenceParsesPlainDigits) {
  // Cadences are plain digits that fit in 32 bits; a sign, junk or an
  // overflow is rejected instead of wrapping or truncating to another
  // cadence.
  for (const auto& [text, value] :
       {std::pair<const char*, std::uint32_t>{"0", 0u}, {"7", 7u},
        {"4294967295", 4294967295u}}) {
    std::uint32_t parsed = 1;
    ASSERT_TRUE(parse_u32(text, parsed)) << text;
    EXPECT_EQ(parsed, value);
  }
  for (const char* bad :
       {"", "-1", "+1", " 1", "1 ", "abc", "4294967296", "99999999999"}) {
    std::uint32_t untouched = 3;
    EXPECT_FALSE(parse_u32(bad, untouched)) << bad;
    EXPECT_EQ(untouched, 3u);
  }
}

TEST(ExecConformance, RetiredEnvironmentKnobsAreIgnored) {
  // The fabric's timing kind, the witness cadence and the execution
  // tier arrive only as explicit values (ChipConfig::net_backend,
  // set_witness_interval, set_exec_path), and the host alone picks the
  // word engine: the retired WAVEPIM_NET_BACKEND, WAVEPIM_WITNESS,
  // WAVEPIM_EXEC and WAVEPIM_WORD_AVX2 reach nothing.
  ScopedEnv backend("WAVEPIM_NET_BACKEND", "cycle");
  ScopedEnv witness("WAVEPIM_WITNESS", "1");
  ScopedEnv exec("WAVEPIM_EXEC", "compiled");
  ScopedEnv word_avx2("WAVEPIM_WORD_AVX2", "0");
  EXPECT_EQ(pim::ChipConfig{}.net_backend, pim::NetBackendKind::Analytic);
  EXPECT_EQ(pim::chip_512mb().net_backend, pim::NetBackendKind::Analytic);

  PimSimulation sim(Problem{ProblemKind::Acoustic, 1, 3},
                    ExpansionMode::None, pim::chip_512mb());
  EXPECT_EQ(sim.exec_path(), ExecPath::Word);
  EXPECT_EQ(sim.witness_interval(), 0u);
  sim.step(1.0e-4);
  EXPECT_EQ(sim.witness_stats().checks, 0u);
  EXPECT_EQ(sim.net_stats().link_schedules, 0u);

  // On AVX2 hosts every word stream still carries its AVX2 mirror.
  const WordPlan* plan = sim.word_plan();
  ASSERT_NE(plan, nullptr);
  if (wordavx::supported()) {
    const auto expect_mirror = [](const WordPlan::WordStream& s) {
      EXPECT_FALSE(s.ops.empty());
      EXPECT_EQ(s.avx.ops.size(), s.ops.size());
    };
    for (std::uint32_t cls = 0; cls < plan->num_classes(); ++cls) {
      expect_mirror(plan->volume_stream(cls));
      for (std::uint32_t g = 0; g < kNumFaceGroups; ++g) {
        expect_mirror(plan->flux_stream(cls, static_cast<FaceGroup>(g)));
      }
    }
  }
}

// ---- Per-block ledger conformance -----------------------------------------
// The sim-level hashes cover fields and aggregated channels; this pins the
// batched cost fold at block granularity. One Volume phase is executed
// twice on identical chips — the cached stream replayed through the
// test-side FunctionalSink vs the compiled plan — and
// every block's ledger (one batched charge per block on the compiled
// side, dozens of per-op charges on the sink side) plus every stored word
// must match bit-for-bit, as must the phase transfer lists.
TEST(ExecConformance, PerBlockVolumeLedgersMatchBitExact) {
  const Problem problem{ProblemKind::Acoustic, 1, 3};
  const ExpansionMode mode = ExpansionMode::Acoustic4;  // intra transfers
  mesh::StructuredMesh mesh(problem.refinement_level, 1.0,
                            Boundary::Periodic);
  ElementSetup setup(problem, mode, mesh.element_size());
  const std::uint32_t bpe = blocks_per_element(mode);
  const std::uint32_t num_blocks = mesh.num_elements() * bpe;

  pim::Chip chip_sink(pim::chip_512mb());
  pim::Chip chip_plan(pim::chip_512mb());
  chip_sink.ensure_blocks(num_blocks);
  chip_plan.ensure_blocks(num_blocks);

  // Identical non-trivial state on both chips, cost-free (set()).
  for (std::uint32_t b = 0; b < num_blocks; ++b) {
    for (std::uint32_t c = 0; c < pim::Block::kWords; ++c) {
      for (std::uint32_t r = 0;
           r < static_cast<std::uint32_t>(setup.ref().num_nodes()); ++r) {
        const float v =
            0.001f * static_cast<float>((b * 263 + c * 29 + r * 7) % 211) -
            0.1f;
        chip_sink.block(b).set(r, c, v);
        chip_plan.block(b).set(r, c, v);
      }
    }
  }

  const SinkPricing pricing =
      SinkPricing::make(chip_sink.arith(), chip_sink.interconnect());
  const Placement placement(bpe);

  ProgramCache cache(setup, mesh, nullptr, nullptr);
  FunctionalSink sink(chip_sink, mesh, placement, pricing);
  std::vector<pim::Transfer> sink_transfers;
  for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
    sink.bind(e);
    replay(cache.arena(), cache.volume(cache.class_of(e)), sink);
    const auto collected = sink.take_transfers();
    sink_transfers.insert(sink_transfers.end(), collected.begin(),
                          collected.end());
  }

  ExecutionPlan plan(cache, mesh, placement, pricing);
  for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
    plan.run_volume(chip_plan, e);
  }

  for (std::uint32_t b = 0; b < num_blocks; ++b) {
    const auto& lhs = chip_sink.block(b).consumed();
    const auto& rhs = chip_plan.block(b).consumed();
    EXPECT_EQ(lhs.time.value(), rhs.time.value()) << "block " << b;
    EXPECT_EQ(lhs.energy.value(), rhs.energy.value()) << "block " << b;
    for (std::uint32_t c = 0; c < pim::Block::kWords; ++c) {
      const auto col_sink = chip_sink.block(b).column(c);
      const auto col_plan = chip_plan.block(b).column(c);
      for (std::uint32_t r = 0; r < pim::Block::kRows; ++r) {
        ASSERT_EQ(col_sink[r], col_plan[r])
            << "block " << b << " word (" << r << ", " << c << ")";
      }
    }
  }

  const auto& plan_transfers = plan.volume_transfers();
  ASSERT_EQ(sink_transfers.size(), plan_transfers.size());
  for (std::size_t i = 0; i < sink_transfers.size(); ++i) {
    EXPECT_EQ(sink_transfers[i].src_block, plan_transfers[i].src_block);
    EXPECT_EQ(sink_transfers[i].dst_block, plan_transfers[i].dst_block);
    EXPECT_EQ(sink_transfers[i].words, plan_transfers[i].words);
  }
}

}  // namespace
}  // namespace wavepim::mapping
