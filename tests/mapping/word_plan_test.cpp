// Word-tier coverage: the op shapes the DG programs dispatch all have a
// kernel, and every other shape runs its compiled op bit-for-bit.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "dg/rk.h"
#include "mapping/exec_plan.h"
#include "mapping/layout.h"
#include "mapping/program_cache.h"
#include "mapping/word_plan.h"
#include "pim/chip.h"

namespace wavepim::mapping {
namespace {

using dg::ProblemKind;
using mesh::Boundary;
using Code = WordPlan::WordOp::Code;

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

// Shapes no DG program emits — an unfused Fsub, a strided scatter, a
// same-column gather overlapping its destination rows, an Fmul->Fadd
// pair with no gather to fold into and an unpaired Faxpy — all route to
// Compiled, and running them through the word
// tier (AVX2 fallback bridge, or the generic executor in the
// WAVEPIM_WORD_AVX2=0 lane) equals ExecutionPlan::run_op bit-for-bit.
TEST(WordFallbackConformance, CompiledOpsMatchRunOpBitForBit) {
  const Problem problem{ProblemKind::Acoustic, 1, 3};
  const ExpansionMode mode = ExpansionMode::None;
  const mesh::StructuredMesh mesh(problem.refinement_level, 1.0,
                                  Boundary::Periodic);
  const ElementSetup setup(problem, mode, mesh.element_size());
  const std::uint32_t num_blocks =
      mesh.num_elements() * blocks_per_element(mode);

  pim::Chip chip_word(pim::chip_512mb());
  pim::Chip chip_ref(pim::chip_512mb());
  chip_word.ensure_blocks(num_blocks);
  chip_ref.ensure_blocks(num_blocks);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::uint32_t b = 0; b < num_blocks; ++b) {
    for (std::uint32_t c = 0; c < pim::Block::kWords; ++c) {
      for (std::uint32_t r = 0; r < 32; ++r) {
        const std::uint32_t k = (b * 263 + c * 29 + r * 7) % 211;
        const float v = k == 5 ? nan : k == 9 ? -0.0f
                                              : 0.01f * static_cast<float>(k) -
                                                    1.0f;
        chip_word.block(b).set(r, c, v);
        chip_ref.block(b).set(r, c, v);
      }
    }
  }

  SinkPricing pricing;
  pricing.model = &chip_word.arith();
  ProgramCache cache(setup, mesh, nullptr, nullptr);
  ExecutionPlan plan(cache, mesh, Placement(blocks_per_element(mode)),
                     pricing);
  WordPlan word(plan);

  using Op = ExecutionPlan::Op;
  const std::vector<std::uint32_t> strided = {1, 4, 7, 10, 13};
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
  scatter.rows_a = strided.data();
  scatter.values = values.data();
  scatter.count = static_cast<std::uint32_t>(strided.size());
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
  if (word.uses_avx2()) {
    ASSERT_EQ(ws.avx.ops.size(), ws.ops.size());
    for (const auto& a : ws.avx.ops) {
      EXPECT_EQ(a.kind, wordavx::AvxOp::Kind::Fallback);
    }
  }

  std::vector<mesh::ElementId> elems(mesh.num_elements());
  std::iota(elems.begin(), elems.end(), mesh::ElementId{0});
  word.run_integration(chip_word, elems, ws);
  for (const mesh::ElementId e : elems) {
    for (const Op& op : stream.ops) {
      plan.run_op(chip_ref, plan.block_base(e), &plan.neighbor_bases(e), op);
    }
  }
  for (std::uint32_t b = 0; b < num_blocks; ++b) {
    const auto got = chip_word.block(b).words();
    const auto want = chip_ref.block(b).words();
    ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size_bytes()), 0)
        << "block " << b;
  }
}

}  // namespace
}  // namespace wavepim::mapping
