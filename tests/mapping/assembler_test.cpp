// The cache's lowering (RelocatableAssembler) is the one PIM program of
// a stage: per shape class a Volume stream and six Flux streams, plus the
// class-independent Integration stream.
#include "mapping/program_cache.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace wavepim::mapping {
namespace {

using dg::ProblemKind;

/// Every stream of one RK stage: each class's Volume and Flux streams in
/// the shared arena, then the stage's Integration stream, lowered here
/// the same way into an arena of its own.
template <typename Visit>
void for_each_instruction(const ProgramCache& cache, int stage, Visit visit) {
  for (std::uint32_t cls = 0; cls < cache.num_classes(); ++cls) {
    for (const pim::Instruction& inst : cache.arena().view(cache.volume(cls))) {
      visit(inst);
    }
    for (mesh::Face f : mesh::kAllFaces) {
      for (const pim::Instruction& inst :
           cache.arena().view(cache.flux(cls, f))) {
        visit(inst);
      }
    }
  }
  ProgramArena integ;
  RelocatableAssembler assembler(integ);
  emit_integration_stage(cache.setup(), stage, 1e-3f, assembler);
  for (const pim::Instruction& inst :
       integ.view({0, integ.num_instructions()})) {
    visit(inst);
  }
}

std::size_t flux_length(const ProgramCache& cache) {
  std::size_t n = 0;
  for (std::uint32_t cls = 0; cls < cache.num_classes(); ++cls) {
    for (mesh::Face f : mesh::kAllFaces) {
      n += cache.flux(cls, f).count;
    }
  }
  return n;
}

TEST(Assembler, LowersEveryEmissionKind) {
  const Problem problem{ProblemKind::Acoustic, 1, 3};
  mesh::StructuredMesh mesh(1, 1.0, mesh::Boundary::Periodic);
  const ElementSetup setup(problem, ExpansionMode::None,
                           mesh.element_size());
  ProgramCache cache(setup, mesh, nullptr, nullptr);

  std::set<pim::Opcode> ops;
  for_each_instruction(cache, 0,
                       [&](const pim::Instruction& i) { ops.insert(i.op); });
  for (pim::Opcode op :
       {pim::Opcode::BroadcastRow, pim::Opcode::GatherRows,
        pim::Opcode::Fmul, pim::Opcode::Fadd, pim::Opcode::Fscale,
        pim::Opcode::Faxpy, pim::Opcode::MemCpy, pim::Opcode::LutLookup}) {
    EXPECT_EQ(ops.count(op), 1u) << pim::to_string(op);
  }
}

TEST(Assembler, ElasticExpansionProgramTargetsMultipleBlocks) {
  const Problem problem{ProblemKind::ElasticCentral, 1, 3};
  mesh::StructuredMesh mesh(1, 1.0, mesh::Boundary::Periodic);
  const ElementSetup setup(problem, ExpansionMode::Elastic3,
                           mesh.element_size());
  ProgramCache cache(setup, mesh, nullptr, nullptr);

  // Relocatable streams address an element's groups, not chip blocks:
  // Elastic3 spreads each element over exactly groups 0-2.
  std::set<std::uint32_t> groups;
  for_each_instruction(cache, 0, [&](const pim::Instruction& i) {
    groups.insert(i.block);
    if (i.op == pim::Opcode::MemCpy) {
      groups.insert(i.peer_block);
    }
  });
  EXPECT_EQ(groups, (std::set<std::uint32_t>{0, 1, 2}));
}

TEST(Assembler, RiemannStreamLongerThanCentral) {
  // PIM-side analogue of Table 6's instruction ordering.
  mesh::StructuredMesh mesh(1, 1.0, mesh::Boundary::Periodic);
  const ElementSetup central({ProblemKind::ElasticCentral, 1, 3},
                             ExpansionMode::Elastic3, mesh.element_size());
  const ElementSetup riemann({ProblemKind::ElasticRiemann, 1, 3},
                             ExpansionMode::Elastic3, mesh.element_size());
  const ProgramCache pc(central, mesh, nullptr, nullptr);
  const ProgramCache pr(riemann, mesh, nullptr, nullptr);
  EXPECT_GT(flux_length(pr), flux_length(pc));
}

/// One ProgramSink call: its name, its scalar arguments (floats by bit
/// pattern) and the contents of its row and value spans.
struct Call {
  std::string name;
  std::vector<std::uint32_t> args;
  std::vector<std::vector<std::uint32_t>> spans;

  bool operator==(const Call&) const = default;
};

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

std::vector<std::uint32_t> content(std::span<const std::uint32_t> rows) {
  return {rows.begin(), rows.end()};
}

std::vector<std::uint32_t> content(std::span<const float> values) {
  std::vector<std::uint32_t> out;
  for (float v : values) {
    out.push_back(bits(v));
  }
  return out;
}

/// Records every call it receives, arguments compared bit for bit.
class RecordingSink final : public ProgramSink {
 public:
  std::vector<Call> calls;

  void scatter(std::uint32_t group, std::span<const std::uint32_t> rows,
               std::uint32_t col, std::span<const float> values,
               std::uint32_t distinct_values) override {
    calls.push_back({"scatter",
                     {group, col, distinct_values},
                     {content(rows), content(values)}});
  }
  void gather(std::uint32_t group, std::span<const std::uint32_t> src_rows,
              std::uint32_t src_col, std::uint32_t dst_col) override {
    calls.push_back({"gather", {group, src_col, dst_col}, {content(src_rows)}});
  }
  void arith(std::uint32_t group, pim::Opcode op, std::uint32_t col_a,
             std::uint32_t col_b, std::uint32_t col_dst,
             std::uint32_t rows) override {
    calls.push_back({"arith",
                     {group, static_cast<std::uint32_t>(op), col_a, col_b,
                      col_dst, rows},
                     {}});
  }
  void fscale(std::uint32_t group, std::uint32_t col_src,
              std::uint32_t col_dst, float imm, std::uint32_t rows) override {
    calls.push_back({"fscale", {group, col_src, col_dst, bits(imm), rows}, {}});
  }
  void faxpy(std::uint32_t group, std::uint32_t col_dst,
             std::uint32_t col_src, float a, float c,
             std::uint32_t rows) override {
    calls.push_back(
        {"faxpy", {group, col_dst, col_src, bits(a), bits(c), rows}, {}});
  }
  void arith_rows(std::uint32_t group, pim::Opcode op, std::uint32_t col_a,
                  std::uint32_t col_b, std::uint32_t col_dst,
                  std::span<const std::uint32_t> rows) override {
    calls.push_back({"arith_rows",
                     {group, static_cast<std::uint32_t>(op), col_a, col_b,
                      col_dst},
                     {content(rows)}});
  }
  void fscale_rows(std::uint32_t group, std::uint32_t col_src,
                   std::uint32_t col_dst, float imm,
                   std::span<const std::uint32_t> rows) override {
    calls.push_back({"fscale_rows",
                     {group, col_src, col_dst, bits(imm)},
                     {content(rows)}});
  }
  void intra_transfer(std::uint32_t src_group, std::uint32_t src_col,
                      std::span<const std::uint32_t> src_rows,
                      std::uint32_t dst_group, std::uint32_t dst_col,
                      std::span<const std::uint32_t> dst_rows) override {
    calls.push_back({"intra_transfer",
                     {src_group, src_col, dst_group, dst_col},
                     {content(src_rows), content(dst_rows)}});
  }
  void inter_transfer(mesh::Face face, std::uint32_t src_group,
                      std::uint32_t src_col,
                      std::span<const std::uint32_t> src_rows,
                      std::uint32_t dst_group, std::uint32_t dst_col,
                      std::span<const std::uint32_t> dst_rows) override {
    calls.push_back({"inter_transfer",
                     {static_cast<std::uint32_t>(mesh::index_of(face)),
                      src_group, src_col, dst_group, dst_col},
                     {content(src_rows), content(dst_rows)}});
  }
  void lut_fetch(std::uint32_t group, std::uint32_t count) override {
    calls.push_back({"lut_fetch", {group, count}, {}});
  }
};

/// Names the first call where the two recordings part.
void expect_same_calls(const RecordingSink& emitted,
                       const RecordingSink& replayed) {
  ASSERT_FALSE(emitted.calls.empty());
  ASSERT_EQ(emitted.calls.size(), replayed.calls.size());
  for (std::size_t i = 0; i < emitted.calls.size(); ++i) {
    ASSERT_TRUE(emitted.calls[i] == replayed.calls[i])
        << "call " << i << ": " << emitted.calls[i].name << " vs "
        << replayed.calls[i].name;
  }
}

TEST(Assembler, ReplayReproducesEmission) {
  // The estimator prices direct emission while the plans price the
  // replayed streams; both must see the identical call sequence.
  struct Case {
    const char* name;
    ProblemKind kind;
    ExpansionMode mode;
  };
  for (const Case c :
       {Case{"acoustic N", ProblemKind::Acoustic, ExpansionMode::None},
        Case{"acoustic Ep", ProblemKind::Acoustic, ExpansionMode::Acoustic4},
        Case{"elastic-central Er", ProblemKind::ElasticCentral,
             ExpansionMode::Elastic3},
        Case{"elastic-riemann Er&Ep", ProblemKind::ElasticRiemann,
             ExpansionMode::Elastic9}}) {
    for (const mesh::Boundary boundary :
         {mesh::Boundary::Periodic, mesh::Boundary::Reflective}) {
      SCOPED_TRACE(std::string(c.name) +
                   (boundary == mesh::Boundary::Periodic ? " periodic"
                                                         : " reflective"));
      const mesh::StructuredMesh mesh(1, 1.0, boundary);
      const ElementSetup setup({c.kind, 1, 3}, c.mode, mesh.element_size());
      const ProgramCache cache(setup, mesh, nullptr, nullptr);
      // Walls split the reflective mesh into one class per corner.
      EXPECT_EQ(cache.num_classes(),
                boundary == mesh::Boundary::Periodic ? 1u : 8u);

      std::vector<bool> seen(cache.num_classes(), false);
      for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
        const std::uint32_t cls = cache.class_of(e);
        if (seen[cls]) {
          continue;
        }
        seen[cls] = true;
        RecordingSink emitted;
        RecordingSink replayed;
        emit_volume(setup, emitted);
        replay(cache.arena(), cache.volume(cls), replayed);
        for (mesh::Face f : mesh::kAllFaces) {
          emit_flux_face(setup, f, !mesh.neighbor(e, f).has_value(), emitted);
          replay(cache.arena(), cache.flux(cls, f), replayed);
        }
        SCOPED_TRACE("class " + std::to_string(cls));
        expect_same_calls(emitted, replayed);
      }

      RecordingSink emitted;
      RecordingSink replayed;
      emit_integration_stage(setup, /*stage=*/2, 1.0e-3f, emitted);
      ProgramArena integ;
      RelocatableAssembler assembler(integ);
      emit_integration_stage(setup, /*stage=*/2, 1.0e-3f, assembler);
      replay(integ, {0, integ.num_instructions()}, replayed);
      expect_same_calls(emitted, replayed);
    }
  }
}

}  // namespace
}  // namespace wavepim::mapping
