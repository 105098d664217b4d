// The cache's lowering (RelocatableAssembler) is the one PIM program of
// a stage: per shape class a Volume stream and six Flux streams, plus the
// class-independent Integration stream.
#include "mapping/program_cache.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <set>

namespace wavepim::mapping {
namespace {

using dg::ProblemKind;

/// Every stream of one RK stage: each class's Volume and Flux streams in
/// the shared arena, then the stage's Integration stream.
template <typename Visit>
void for_each_instruction(ProgramCache& cache, int stage, Visit visit) {
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
  const ProgramCache::IntegrationProgram& integ =
      cache.integration(stage, 1e-3f);
  for (const pim::Instruction& inst : integ.arena.view(integ.stream)) {
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

}  // namespace
}  // namespace wavepim::mapping
