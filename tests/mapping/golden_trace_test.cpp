// Golden traces of the mapping layer's codegen: FNV-1a hashes of the
// lowered instruction streams (opcode + every operand + referenced side
// tables), per kernel per shape class, for fixed small problems. A hash
// mismatch means the generated PIM programs changed — deliberately or
// not — and fails loudly instead of silently shifting cost reports.
//
// Regenerating after an intentional codegen change: run
//   WAVEPIM_PRINT_GOLDEN=1 ./test_mapping --gtest_filter='GoldenTrace.*'
// and paste the printed constants over the kGolden* tables below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <utility>

#include "mapping/program_cache.h"
#include "mapping/simulation.h"

namespace wavepim::mapping {
namespace {

using dg::ProblemKind;
using mesh::Boundary;

// ---- FNV-1a over a canonical instruction serialization --------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
}

void fnv_f32(std::uint64_t& h, float v) {
  std::uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  fnv(h, bits);
}

/// Hashes one cached stream: every instruction field in declaration
/// order, then the contents of any referenced side table (rows for
/// gathers/copies, rows + float values for scatters), so table renumbering
/// with identical contents does not shift the hash but any content change
/// does.
std::uint64_t hash_stream(const ProgramArena& arena, StreamRef ref) {
  std::uint64_t h = kFnvOffset;
  for (const pim::Instruction& inst : arena.view(ref)) {
    fnv(h, static_cast<std::uint64_t>(inst.op));
    fnv(h, inst.block);
    fnv(h, inst.row);
    fnv(h, inst.row_count);
    fnv(h, inst.col_a);
    fnv(h, inst.col_b);
    fnv(h, inst.col_dst);
    fnv(h, inst.word_count);
    fnv(h, inst.peer_block);
    fnv_f32(h, inst.imm);
    fnv_f32(h, inst.imm2);
    const bool values_in_b = inst.op == pim::Opcode::BroadcastRow;
    if (inst.table_a != pim::Instruction::kNoTable) {
      for (std::uint32_t r : arena.rows(inst.table_a)) {
        fnv(h, r);
      }
    }
    if (inst.table_b != pim::Instruction::kNoTable) {
      if (values_in_b) {
        for (float v : arena.values(inst.table_b)) {
          fnv_f32(h, v);
        }
      } else {
        for (std::uint32_t r : arena.rows(inst.table_b)) {
          fnv(h, r);
        }
      }
    }
  }
  return h;
}

/// Per-kernel hashes of one problem configuration: every shape class's
/// Volume stream folded in class order, likewise all six Flux streams per
/// class, plus the (class-independent) stage-0 Integration stream.
struct KernelHashes {
  std::uint64_t volume = kFnvOffset;
  std::uint64_t flux = kFnvOffset;
  std::uint64_t integration = kFnvOffset;
};

KernelHashes hash_problem(const Problem& problem, ExpansionMode mode,
                          Boundary boundary) {
  mesh::StructuredMesh mesh(problem.refinement_level, 1.0, boundary);
  const ElementSetup setup(problem, mode, mesh.element_size());
  const ProgramCache cache(setup, mesh, nullptr, nullptr);

  KernelHashes h;
  for (std::uint32_t cls = 0; cls < cache.num_classes(); ++cls) {
    fnv(h.volume, hash_stream(cache.arena(), cache.volume(cls)));
    for (mesh::Face f : mesh::kAllFaces) {
      fnv(h.flux, hash_stream(cache.arena(), cache.flux(cls, f)));
    }
  }
  ProgramArena integ;
  RelocatableAssembler assembler(integ);
  emit_integration_stage(setup, /*stage=*/0, 1.0e-3f, assembler);
  fnv(h.integration, hash_stream(integ, {0, integ.num_instructions()}));
  return h;
}

constexpr char kRegenHint[] =
    "lowered instruction streams changed; if intentional, regenerate with "
    "WAVEPIM_PRINT_GOLDEN=1 ./test_mapping --gtest_filter='GoldenTrace.*' "
    "and update the constants in golden_trace_test.cpp";

void check(const char* name, const KernelHashes& actual,
           const KernelHashes& golden) {
  if (std::getenv("WAVEPIM_PRINT_GOLDEN") != nullptr) {
    std::fprintf(stderr,
                 "golden %s: {0x%016llXull, 0x%016llXull, 0x%016llXull}\n",
                 name, static_cast<unsigned long long>(actual.volume),
                 static_cast<unsigned long long>(actual.flux),
                 static_cast<unsigned long long>(actual.integration));
    return;
  }
  EXPECT_EQ(actual.volume, golden.volume) << name << " volume: " << kRegenHint;
  EXPECT_EQ(actual.flux, golden.flux) << name << " flux: " << kRegenHint;
  EXPECT_EQ(actual.integration, golden.integration)
      << name << " integration: " << kRegenHint;
}

// ---- Golden constants (regenerate per the header comment) -----------------

constexpr KernelHashes kGoldenAcousticPeriodic = {
    0x69626202547038AEull, 0xAC4E1EBB772CDF38ull, 0x392BB72BFB9021A7ull};
constexpr KernelHashes kGoldenAcoustic4Periodic = {
    0x9B2CCBC93332F996ull, 0x6F6F12FA21F57E87ull, 0x28EDB39065739861ull};
constexpr KernelHashes kGoldenElasticReflective = {
    0x0565A6B848595503ull, 0x8DDA42202323A3DBull, 0xFFD92694C33425FAull};
constexpr KernelHashes kGoldenRiemannPeriodic = {
    0xE32325AA4863FE4Dull, 0x3C1CB1572D523C4Aull, 0xFFD92694C33425FAull};

TEST(GoldenTrace, AcousticPeriodic) {
  check("kGoldenAcousticPeriodic",
        hash_problem({ProblemKind::Acoustic, 1, 3}, ExpansionMode::None,
                     Boundary::Periodic),
        kGoldenAcousticPeriodic);
}

TEST(GoldenTrace, AcousticExpandedPeriodic) {
  check("kGoldenAcoustic4Periodic",
        hash_problem({ProblemKind::Acoustic, 1, 3}, ExpansionMode::Acoustic4,
                     Boundary::Periodic),
        kGoldenAcoustic4Periodic);
}

TEST(GoldenTrace, ElasticCentralReflective) {
  check("kGoldenElasticReflective",
        hash_problem({ProblemKind::ElasticCentral, 1, 3},
                     ExpansionMode::Elastic3, Boundary::Reflective),
        kGoldenElasticReflective);
}

TEST(GoldenTrace, ElasticRiemannPeriodic) {
  check("kGoldenRiemannPeriodic",
        hash_problem({ProblemKind::ElasticRiemann, 1, 3},
                     ExpansionMode::Elastic3, Boundary::Periodic),
        kGoldenRiemannPeriodic);
}

// ---- Cache classification parity ------------------------------------------
// Every element's own lowering must be its class's cached stream. On a
// level-1 reflective mesh all eight elements are corners with distinct
// wall faces, so each forms its own class and a misclassified element
// would replay another corner's flux.

/// Expects `got` (in `got_arena`) to hold `want`'s instructions, with
/// side tables compared by content: the cache interns tables across
/// classes, so equal tables may carry different ids.
void expect_same_stream(const ProgramArena& got_arena, StreamRef got,
                        const ProgramArena& want_arena, StreamRef want) {
  const auto a = got_arena.view(got);
  const auto b = want_arena.view(want);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    pim::Instruction x = a[i];
    pim::Instruction y = b[i];
    const bool values_in_b = x.op == pim::Opcode::BroadcastRow;
    if (x.table_a != pim::Instruction::kNoTable &&
        y.table_a != pim::Instruction::kNoTable) {
      ASSERT_TRUE(std::ranges::equal(got_arena.rows(x.table_a),
                                     want_arena.rows(y.table_a)))
          << "instruction " << i;
      x.table_a = y.table_a = 0;
    }
    if (x.table_b != pim::Instruction::kNoTable &&
        y.table_b != pim::Instruction::kNoTable) {
      if (values_in_b) {
        ASSERT_TRUE(std::ranges::equal(got_arena.values(x.table_b),
                                       want_arena.values(y.table_b)))
            << "instruction " << i;
      } else {
        ASSERT_TRUE(std::ranges::equal(got_arena.rows(x.table_b),
                                       want_arena.rows(y.table_b)))
            << "instruction " << i;
      }
      x.table_b = y.table_b = 0;
    }
    ASSERT_EQ(x, y) << "instruction " << i;
  }
}

TEST(GoldenTrace, EveryElementLowersToItsCachedClassStreams) {
  for (const auto& [kind, mode] :
       {std::pair{ProblemKind::Acoustic, ExpansionMode::None},
        std::pair{ProblemKind::ElasticCentral, ExpansionMode::Elastic3}}) {
    SCOPED_TRACE(dg::to_string(kind));
    mesh::StructuredMesh mesh(1, 1.0, Boundary::Reflective);
    const ElementSetup setup({kind, 1, 3}, mode, mesh.element_size());
    const ProgramCache cache(setup, mesh, nullptr, nullptr);
    EXPECT_EQ(cache.num_classes(), mesh.num_elements());

    for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
      SCOPED_TRACE("element " + std::to_string(e));
      const std::uint32_t cls = cache.class_of(e);
      ProgramArena direct;
      RelocatableAssembler sink(direct);
      emit_volume(setup, sink);
      expect_same_stream(direct, {0, direct.num_instructions()},
                         cache.arena(), cache.volume(cls));
      for (mesh::Face f : mesh::kAllFaces) {
        const std::uint32_t begin = direct.num_instructions();
        emit_flux_face(setup, f, !mesh.neighbor(e, f).has_value(), sink);
        expect_same_stream(direct,
                           {begin, direct.num_instructions() - begin},
                           cache.arena(), cache.flux(cls, f));
      }
    }
  }
}

}  // namespace
}  // namespace wavepim::mapping
