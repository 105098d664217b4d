// Word-tier coverage: the op shapes the DG programs dispatch all have a
// kernel, and every other shape runs its compiled op bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/float_bits.h"
#include "dg/rk.h"
#include "mapping/exec_plan.h"
#include "mapping/layout.h"
#include "mapping/program_cache.h"
#include "mapping/simulation.h"
#include "mapping/word_plan.h"
#include "pim/chip.h"
#include "support/layered_medium.h"

namespace wavepim::mapping {
namespace {

using dg::ProblemKind;
using mesh::Boundary;
using Code = WordPlan::WordOp::Code;

/// Whether two block images are equal under the NaN contract: bit for
/// bit, with every NaN equal to every other (canonical_bits).
bool same_words(std::span<const float> a, std::span<const float> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](float x, float y) {
                      return canonical_bits(x) == canonical_bits(y);
                    });
}

// A codegen change that sends a dispatched shape to the Compiled
// fallback stays bit-identical, so only this census notices it getting
// slow: every physics, element order, expansion and boundary must
// resolve to kernels alone.
TEST(WordCensus, DgProgramsDispatchNoCompiledOps) {
  const pim::ArithModel model;
  SinkPricing pricing;
  pricing.model = &model;
  for (const ProblemKind kind : {ProblemKind::Acoustic,
                                 ProblemKind::ElasticCentral,
                                 ProblemKind::ElasticRiemann}) {
    for (int n1d = 2; n1d <= 8; ++n1d) {
      for (const ExpansionMode mode : applicable_modes(kind)) {
        for (const Boundary boundary :
             {Boundary::Periodic, Boundary::Reflective}) {
          const Problem problem{kind, 2, n1d};
          const mesh::StructuredMesh mesh(problem.refinement_level, 1.0,
                                          boundary);
          const ElementSetup setup(problem, mode, mesh.element_size());
          ProgramCache cache(setup, mesh, nullptr, nullptr);
          ExecutionPlan plan(cache, mesh, Placement(blocks_per_element(mode)),
                             pricing);
          WordPlan word(plan);
          for (int stage = 0; stage < dg::Lsrk54::kNumStages; ++stage) {
            (void)word.integration(stage, 1.0e-4f);
          }
          EXPECT_EQ(word.fuse_stats().compiled, 0u)
              << problem.name() << " " << to_string(mode)
              << (boundary == Boundary::Periodic ? " periodic"
                                                 : " reflective");
        }
      }
    }
  }
}

/// Row extent a simulation gives its chip: nodes rounded up to 8.
std::uint32_t compact_extent(const Problem& problem) {
  const auto nodes =
      static_cast<std::uint32_t>(problem.n1d * problem.n1d * problem.n1d);
  return (nodes + 7) / 8 * 8;
}

/// Applies `fn` to every AVX2 op of the plan's volume, flux and
/// integration streams (the integration streams at the test's dt).
template <typename Fn>
void for_each_avx_op(WordPlan& word, Fn&& fn) {
  const auto walk = [&](const WordPlan::WordStream& s) {
    std::for_each(s.avx.ops.begin(), s.avx.ops.end(), fn);
  };
  for (std::uint32_t cls = 0; cls < word.num_classes(); ++cls) {
    walk(word.volume_stream(cls));
    for (std::uint32_t g = 0; g < kNumFaceGroups; ++g) {
      walk(word.flux_stream(cls, static_cast<FaceGroup>(g)));
    }
  }
  for (int stage = 0; stage < dg::Lsrk54::kNumStages; ++stage) {
    walk(word.integration(stage, 1.0e-4f));
  }
}

/// Word ops whose AVX2 mirror fell back to the portable kernels.
std::uint64_t avx_fallbacks(WordPlan& word) {
  std::uint64_t n = 0;
  for_each_avx_op(word, [&](const wordavx::AvxOp& a) {
    n += a.kind == wordavx::AvxOp::Kind::Fallback ? 1 : 0;
  });
  return n;
}

/// Every vector op has 1-4 destination groups, and every windowed one
/// 1-4 source groups: the only sizes the AVX2 engine has kernels for.
void expect_windows_within_engine(WordPlan& word) {
  using Kind = wordavx::AvxOp::Kind;
  for_each_avx_op(word, [](const wordavx::AvxOp& a) {
    if (a.kind == Kind::Fallback || a.kind == Kind::Nop) {
      return;
    }
    EXPECT_GE(a.ngroups, 1u);
    EXPECT_LE(a.ngroups, 4u);
    const bool windowed = a.kind == Kind::Permute ||
                          a.kind == Kind::GatherMul ||
                          a.kind == Kind::GatherMulAdd;
    if (windowed) {
      EXPECT_GE(a.wgroups, 1u);
      EXPECT_LE(a.wgroups, 4u);
    }
  });
}

// Compact block storage must not cost the word tier a kernel: at the
// row extent a simulation uses, every stream fuses exactly as at the
// full crossbar height (no op silently falls back to Compiled), and the
// AVX2 engine keeps every op it could vectorize. On AVX2 hosts it also
// pins the engine's traffic: every vector op fits the 1-4 group
// kernels, and through n1d = 3 — every element order the entry points
// run — no op takes the fallback bridge.
TEST(RowExtent, WordPlanIsTheSameAtCompactAndFullExtent) {
  const pim::ArithModel model;
  SinkPricing pricing;
  pricing.model = &model;
  for (const ProblemKind kind : {ProblemKind::Acoustic,
                                 ProblemKind::ElasticCentral,
                                 ProblemKind::ElasticRiemann}) {
    for (int n1d = 2; n1d <= 4; ++n1d) {
      for (const ExpansionMode mode : applicable_modes(kind)) {
        const Problem problem{kind, 2, n1d};
        SCOPED_TRACE(problem.name() + " " + to_string(mode));
        const mesh::StructuredMesh mesh(problem.refinement_level, 1.0,
                                        Boundary::Periodic);
        const ElementSetup setup(problem, mode, mesh.element_size());
        ProgramCache cache(setup, mesh, nullptr, nullptr);
        const Placement placement(blocks_per_element(mode));
        ExecutionPlan full_plan(cache, mesh, placement, pricing);
        ExecutionPlan compact_plan(cache, mesh, placement, pricing,
                                   compact_extent(problem));
        WordPlan full(full_plan);
        WordPlan compact(compact_plan);
        for (int stage = 0; stage < dg::Lsrk54::kNumStages; ++stage) {
          (void)full.integration(stage, 1.0e-4f);
          (void)compact.integration(stage, 1.0e-4f);
        }
        const auto& a = full.fuse_stats();
        const auto& b = compact.fuse_stats();
        EXPECT_EQ(a.ops_before, b.ops_before);
        EXPECT_EQ(a.ops_after, b.ops_after);
        EXPECT_EQ(a.scale_add, b.scale_add);
        EXPECT_EQ(a.mul_add, b.mul_add);
        EXPECT_EQ(a.axpy_pair, b.axpy_pair);
        EXPECT_EQ(a.chains, b.chains);
        EXPECT_EQ(a.chain_links, b.chain_links);
        EXPECT_EQ(a.chain_pairs, b.chain_pairs);
        EXPECT_EQ(a.gather_fused, b.gather_fused);
        EXPECT_EQ(a.dead_stores, b.dead_stores);
        EXPECT_EQ(a.compiled, b.compiled);
        EXPECT_EQ(avx_fallbacks(full), avx_fallbacks(compact));
        if (wordavx::supported()) {
          expect_windows_within_engine(full);
          expect_windows_within_engine(compact);
          if (n1d <= 3) {
            EXPECT_EQ(avx_fallbacks(compact), 0u);
          }
        }
      }
    }
  }
}

// Both plan builders check every op's rows against the row extent once,
// so execution can walk raw offsets: an op reaching the extent is
// rejected at build time.
TEST(RowExtent, PlanBuildersRejectRowsReachingTheExtent) {
  const Problem problem{ProblemKind::Acoustic, 1, 3};  // 27 node rows
  const ExpansionMode mode = ExpansionMode::None;
  const mesh::StructuredMesh mesh(problem.refinement_level, 1.0,
                                  Boundary::Periodic);
  const ElementSetup setup(problem, mode, mesh.element_size());
  const pim::ArithModel model;
  SinkPricing pricing;
  pricing.model = &model;
  ProgramCache cache(setup, mesh, nullptr, nullptr);
  const Placement placement(blocks_per_element(mode));

  // Compiled builder: the DG streams address rows [0, 27).
  EXPECT_THROW(ExecutionPlan(cache, mesh, placement, pricing, 26),
               PreconditionError);
  ExecutionPlan tight(cache, mesh, placement, pricing, 27);
  EXPECT_EQ(tight.row_extent(), 27u);

  // Word builder, fed ops directly at extent 32.
  ExecutionPlan plan(cache, mesh, placement, pricing, 32);
  WordPlan word(plan);
  using Op = ExecutionPlan::Op;
  const std::vector<std::uint32_t> last = {0, 31};
  const std::vector<std::uint32_t> past = {0, 32};
  const std::vector<float> values = {1.0f, 2.0f};
  const auto compile_one = [&](const Op& op) {
    ExecutionPlan::StreamPlan stream;
    stream.ops = {op};
    return word.compile(stream).ops.size();
  };
  Op add;
  add.kind = Op::Kind::Arith;
  add.opcode = pim::Opcode::Fadd;
  add.col_a = 0;
  add.col_b = 1;
  add.col_dst = pim::Block::kWords - 1;
  add.count = 32;
  EXPECT_EQ(compile_one(add), 1u);
  add.count = 33;
  EXPECT_THROW((void)compile_one(add), PreconditionError);

  Op scatter;
  scatter.kind = Op::Kind::Scatter;
  scatter.col_dst = pim::Block::kWords - 1;
  scatter.values = values.data();
  scatter.count = 2;
  scatter.rows_a = last.data();
  EXPECT_EQ(compile_one(scatter), 1u);
  scatter.rows_a = past.data();
  EXPECT_THROW((void)compile_one(scatter), PreconditionError);

  Op move;
  move.kind = Op::Kind::Move;
  move.col_a = 0;
  move.col_dst = 1;
  move.peer_group = 0;
  move.count = 2;
  move.rows_a = last.data();
  move.rows_b = last.data();
  EXPECT_EQ(compile_one(move), 1u);
  move.rows_b = past.data();
  EXPECT_THROW((void)compile_one(move), PreconditionError);
}

// A simulation's chip stores only its elements' node rows, rounded up
// to whole 8-row groups: blocks x extent x 32 floats in all.
TEST(RowExtent, SimulationChipStoresOnlyTheNodeRows) {
  for (int n1d = 2; n1d <= 4; ++n1d) {
    const Problem problem{ProblemKind::Acoustic, 1, n1d};
    PimSimulation sim(problem, ExpansionMode::None, pim::chip_512mb());
    const pim::Chip& chip = sim.chip();
    const std::uint32_t extent = compact_extent(problem);
    EXPECT_EQ(chip.row_extent(), extent) << "n1d " << n1d;
    ASSERT_GT(chip.num_allocated_blocks(), 0u);
    std::size_t stored = 0;
    for (std::uint32_t id = 0; id < chip.config().num_blocks(); ++id) {
      if (chip.block_allocated(id)) {
        stored += sim.chip().block(id).words().size();
      }
    }
    EXPECT_EQ(stored, chip.num_allocated_blocks() * extent *
                          pim::Block::kWords)
        << "n1d " << n1d;
  }
}

// Word ops address blocks by precomputed column offsets, so a plan
// must only run on blocks of its own row extent.
TEST(RowExtent, WordPlanRefusesBlocksOfAnotherExtent) {
  const Problem problem{ProblemKind::Acoustic, 1, 3};
  const ExpansionMode mode = ExpansionMode::None;
  const mesh::StructuredMesh mesh(problem.refinement_level, 1.0,
                                  Boundary::Periodic);
  const ElementSetup setup(problem, mode, mesh.element_size());
  pim::Chip chip(pim::chip_512mb());
  chip.set_row_extent(compact_extent(problem));
  chip.ensure_blocks(mesh.num_elements() * blocks_per_element(mode));
  SinkPricing pricing;
  pricing.model = &chip.arith();
  ProgramCache cache(setup, mesh, nullptr, nullptr);
  ExecutionPlan plan(cache, mesh, Placement(blocks_per_element(mode)),
                     pricing);  // full extent
  WordPlan word(plan);
  std::vector<mesh::ElementId> elems(mesh.num_elements());
  std::iota(elems.begin(), elems.end(), mesh::ElementId{0});
  EXPECT_THROW(word.run_volume(chip, elems), InvariantError);
}

// Shapes no DG program emits — an unfused Fsub, a scatter over an
// indexed row list (every third row: scatters have a contiguous kernel
// only), a same-column gather overlapping its destination rows, an
// Fmul->Fadd pair with no gather to fold into and an unpaired Faxpy —
// all route to Compiled. Running them through both word executors (on
// AVX2 hosts, the stream as built takes the engine's fallback bridge;
// a copy with its mirror cleared takes the portable executor) equals
// ExecutionPlan::run_op bit-for-bit.
TEST(WordFallbackConformance, CompiledOpsMatchRunOpBitForBit) {
  const Problem problem{ProblemKind::Acoustic, 1, 3};
  const ExpansionMode mode = ExpansionMode::None;
  const mesh::StructuredMesh mesh(problem.refinement_level, 1.0,
                                  Boundary::Periodic);
  const ElementSetup setup(problem, mode, mesh.element_size());
  const std::uint32_t num_blocks =
      mesh.num_elements() * blocks_per_element(mode);

  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto seeded_chip = [&] {
    auto chip = std::make_unique<pim::Chip>(pim::chip_512mb());
    chip->ensure_blocks(num_blocks);
    for (std::uint32_t b = 0; b < num_blocks; ++b) {
      for (std::uint32_t c = 0; c < pim::Block::kWords; ++c) {
        for (std::uint32_t r = 0; r < 32; ++r) {
          const std::uint32_t k = (b * 263 + c * 29 + r * 7) % 211;
          const float v = k == 5   ? nan
                          : k == 9 ? -0.0f
                                   : 0.01f * static_cast<float>(k) - 1.0f;
          chip->block(b).set(r, c, v);
        }
      }
    }
    return chip;
  };
  const auto chip_ref = seeded_chip();

  SinkPricing pricing;
  pricing.model = &chip_ref->arith();
  ProgramCache cache(setup, mesh, nullptr, nullptr);
  ExecutionPlan plan(cache, mesh, Placement(blocks_per_element(mode)),
                     pricing);
  WordPlan word(plan);

  using Op = ExecutionPlan::Op;
  const std::vector<std::uint32_t> every_third = {1, 4, 7, 10, 13};
  const std::vector<float> values = {1.5f, -0.0f, nan, 2.25f, -3.0f};
  const std::vector<std::uint32_t> perm = {7, 3, 0, 5, 3, 1, 6, 2};
  ExecutionPlan::StreamPlan stream;
  Op sub;
  sub.kind = Op::Kind::Arith;
  sub.opcode = pim::Opcode::Fsub;
  sub.col_a = 1;
  sub.col_b = 2;
  sub.col_dst = 3;
  sub.count = 27;
  Op scatter;
  scatter.kind = Op::Kind::Scatter;
  scatter.col_dst = 4;
  scatter.rows_a = every_third.data();
  scatter.values = values.data();
  scatter.count = static_cast<std::uint32_t>(every_third.size());
  Op gather;
  gather.kind = Op::Kind::Gather;
  gather.col_a = 5;
  gather.col_dst = 5;
  gather.rows_a = perm.data();
  gather.count = static_cast<std::uint32_t>(perm.size());
  // Pass 1 fuses these two into a MulAdd tag, which only a preceding
  // gather would consume; the survivor splits back into both ops.
  Op mul;
  mul.kind = Op::Kind::Arith;
  mul.opcode = pim::Opcode::Fmul;
  mul.col_a = 8;
  mul.col_b = 9;
  mul.col_dst = 10;
  mul.count = 27;
  Op add;
  add.kind = Op::Kind::Arith;
  add.opcode = pim::Opcode::Fadd;
  add.col_a = 11;
  add.col_b = 10;
  add.col_dst = 11;
  add.count = 27;
  Op axpy;
  axpy.kind = Op::Kind::Faxpy;
  axpy.col_a = 6;
  axpy.col_dst = 7;
  axpy.imm = 0.75f;
  axpy.imm2 = -1.25f;
  axpy.count = 27;
  stream.ops = {sub, scatter, gather, mul, add, axpy};

  const std::uint64_t before = word.fuse_stats().compiled;
  const std::uint64_t mul_adds = word.fuse_stats().mul_add;
  const WordPlan::WordStream ws = word.compile(stream);
  EXPECT_EQ(word.fuse_stats().mul_add - mul_adds, 1u);
  EXPECT_EQ(word.fuse_stats().compiled - before, stream.ops.size());
  ASSERT_EQ(ws.ops.size(), stream.ops.size());
  for (std::size_t i = 0; i < ws.ops.size(); ++i) {
    EXPECT_EQ(ws.ops[i].code, Code::Compiled) << "op " << i;
    EXPECT_EQ(ws.ops[i].src, &stream.ops[i]) << "op " << i;
  }
  if (wordavx::supported()) {
    ASSERT_EQ(ws.avx.ops.size(), ws.ops.size());
    for (const auto& a : ws.avx.ops) {
      EXPECT_EQ(a.kind, wordavx::AvxOp::Kind::Fallback);
    }
  }

  std::vector<mesh::ElementId> elems(mesh.num_elements());
  std::iota(elems.begin(), elems.end(), mesh::ElementId{0});
  for (const mesh::ElementId e : elems) {
    for (const Op& op : stream.ops) {
      plan.run_op(*chip_ref, plan.block_base(e), &plan.neighbor_bases(e), op);
    }
  }
  WordPlan::WordStream portable = ws;
  portable.avx.ops.clear();
  const std::array<const WordPlan::WordStream*, 2> runs = {&ws, &portable};
  for (const WordPlan::WordStream* run : runs) {
    SCOPED_TRACE(run->avx.ops.empty() ? "portable executor"
                                      : "AVX2 fallback bridge");
    const auto chip_word = seeded_chip();
    word.run_stream(*chip_word, elems, *run);
    for (std::uint32_t b = 0; b < num_blocks; ++b) {
      const auto got = chip_word->block(b).words();
      const auto want = chip_ref->block(b).words();
      ASSERT_TRUE(same_words(got, want)) << "block " << b;
    }
  }
}


// The word tier has two executors and the host picks one: on AVX2 hosts
// every stream carries an AVX2 mirror that the engine runs, and a
// stream without one runs the portable pim/word.h kernels (every stream
// on other hosts). This pins the two against each other stream by
// stream. Every compiled stream of every physics x expansion plan at
// n1d 2-4 (each class's volume and flux-group streams, plus two
// integration stages), on a periodic, a reflective and a layered mesh,
// runs over its class's elements on twin chips loaded with the same
// words: once as built, through the engine, and once as a copy with its
// mirror cleared, through the portable executor. The words mix IEEE
// edge cases with plain values, among them NaNs of distinct payloads:
// which of two NaN operands an add returns is the compiler's choice (it
// treats float addition as commutative), so the executors may differ
// there, and the contract is only that a NaN stays a NaN. Every stored
// word must match under that rule (same_words) and every block ledger
// bit for bit. The
// layered case resolves blocks through a permuted virtual block table,
// as the batched residency path does.
TEST(WordEngines, PortableMatchesAvx2PerStream) {
  if (!wordavx::supported()) {
    GTEST_SKIP() << "no AVX2 on this host: the portable executor runs "
                    "every stream";
  }
  enum class Medium { Periodic, Reflective, Layered };
  for (const ProblemKind kind : {ProblemKind::Acoustic,
                                 ProblemKind::ElasticCentral,
                                 ProblemKind::ElasticRiemann}) {
    for (int n1d = 2; n1d <= 4; ++n1d) {
      for (const ExpansionMode mode : applicable_modes(kind)) {
        for (const Medium medium :
             {Medium::Periodic, Medium::Reflective, Medium::Layered}) {
          const Problem problem{kind, 1, n1d};
          SCOPED_TRACE(problem.name() + " " + to_string(mode) + " medium " +
                       std::to_string(static_cast<int>(medium)));
          const mesh::StructuredMesh mesh(problem.refinement_level, 1.0,
                                          medium == Medium::Reflective
                                              ? Boundary::Reflective
                                              : Boundary::Periodic);
          const ElementSetup setup(problem, mode, mesh.element_size());
          const MediumCoeffs coeffs = medium == Medium::Layered
                                          ? layered_medium(kind, mesh)
                                          : MediumCoeffs{};
          const std::uint32_t extent = compact_extent(problem);
          const std::uint32_t num_blocks =
              mesh.num_elements() * blocks_per_element(mode);

          std::array<pim::Chip, 2> chips = {pim::Chip(pim::chip_512mb()),
                                            pim::Chip(pim::chip_512mb())};
          std::array<std::vector<pim::Block*>, 2> tables;
          for (std::size_t side = 0; side < 2; ++side) {
            chips[side].set_row_extent(extent);
            chips[side].ensure_blocks(num_blocks);
            for (std::uint32_t id = 0; id < num_blocks; ++id) {
              tables[side].push_back(&chips[side].block(num_blocks - 1 - id));
            }
          }
          const auto resolver = [&](std::size_t side) {
            return medium == Medium::Layered
                       ? BlockResolver(chips[side], tables[side].data())
                       : BlockResolver(chips[side]);
          };

          // One image of every stored word, reloaded before each stream:
          // 1 word in 8 a NaN (the x86 default NaN or a quiet NaN with a
          // random payload), then -0, denormals, overflow-prone
          // magnitudes and plain values.
          std::vector<float> image(std::size_t{num_blocks} * extent *
                                   pim::Block::kWords);
          std::uint32_t x = 0x9E3779B9u;
          for (float& v : image) {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            const std::uint32_t sign = x & 0x80000000u;
            switch (x % 16) {
              case 0:
                v = std::bit_cast<float>(0xFFC00000u);
                break;
              case 1:
                v = std::bit_cast<float>(sign | 0x7FC00000u | (x >> 10));
                break;
              case 2:
                v = -0.0f;
                break;
              case 3:
                v = std::bit_cast<float>(sign | ((x >> 8) & 0x007FFFFFu) | 1u);
                break;
              case 4:
                v = std::bit_cast<float>(sign | 0x7E000000u | (x >> 9));
                break;
              default:
                v = static_cast<float>(static_cast<std::int32_t>(x)) * 0x1p-31f;
            }
          }

          SinkPricing pricing;
          pricing.model = &chips[0].arith();
          ProgramCache cache(setup, mesh,
                             coeffs.volume.empty() ? nullptr : &coeffs.volume,
                             coeffs.flux.empty() ? nullptr : &coeffs.flux);
          ExecutionPlan plan(cache, mesh, Placement(blocks_per_element(mode)),
                             pricing, extent);
          WordPlan word(plan);

          const auto ledger_bits = [](const pim::Block& block) {
            return std::pair{
                std::bit_cast<std::uint64_t>(block.consumed().time.value()),
                std::bit_cast<std::uint64_t>(block.consumed().energy.value())};
          };
          const auto run_both = [&](const WordPlan::WordStream& built,
                                    std::span<const mesh::ElementId> elems,
                                    const std::string& what) {
            ASSERT_EQ(built.avx.ops.size(), built.ops.size()) << what;
            WordPlan::WordStream portable = built;
            portable.avx.ops.clear();
            for (std::size_t side = 0; side < 2; ++side) {
              const std::size_t per_block = std::size_t{extent} *
                                            pim::Block::kWords;
              for (std::uint32_t b = 0; b < num_blocks; ++b) {
                pim::Block& block = chips[side].block(b);
                std::copy_n(image.begin() + b * per_block, per_block,
                            block.words().begin());
                block.reset_cost();
              }
              word.run_stream(resolver(side), elems,
                              side == 0 ? built : portable);
            }
            for (std::uint32_t b = 0; b < num_blocks; ++b) {
              const pim::Block& avx = chips[0].block(b);
              const pim::Block& port = chips[1].block(b);
              ASSERT_TRUE(same_words(avx.words(), port.words()))
                  << what << ": words of block " << b;
              EXPECT_EQ(ledger_bits(avx), ledger_bits(port))
                  << what << ": ledger of block " << b;
            }
          };

          std::vector<mesh::ElementId> all(mesh.num_elements());
          std::iota(all.begin(), all.end(), mesh::ElementId{0});
          for (std::uint32_t cls = 0; cls < word.num_classes(); ++cls) {
            std::vector<mesh::ElementId> elems;
            std::copy_if(all.begin(), all.end(), std::back_inserter(elems),
                         [&](mesh::ElementId e) {
                           return plan.class_of(e) == cls;
                         });
            const std::string name = "class " + std::to_string(cls);
            run_both(word.volume_stream(cls), elems, name + " volume");
            for (std::uint32_t g = 0; g < kNumFaceGroups; ++g) {
              run_both(word.flux_stream(cls, static_cast<FaceGroup>(g)), elems,
                       name + " flux group " + std::to_string(g));
            }
          }
          for (int stage = 0; stage < 2; ++stage) {
            run_both(word.integration(stage, 1.0e-4f), all,
                     "integration stage " + std::to_string(stage));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace wavepim::mapping
