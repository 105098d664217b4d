// The scenario matrix is declarative data the whole evaluation hangs
// off: ids must be stable and unique, the reduced CI matrix must be a
// strict subset of the full one, and the axes the matrix exists to
// cover (an over-capacity window, heterogeneous materials, a reflective
// boundary) must actually be enumerated.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "eval/matrix.h"

namespace wavepim::eval {
namespace {

std::set<std::string> ids_of(const std::vector<Scenario>& scenarios) {
  std::set<std::string> ids;
  for (const auto& s : scenarios) {
    ids.insert(s.id());
  }
  return ids;
}

TEST(Matrix, IdsAreUnique) {
  for (const MatrixKind kind : {MatrixKind::Reduced, MatrixKind::Full}) {
    const auto scenarios = build_matrix(kind);
    EXPECT_EQ(ids_of(scenarios).size(), scenarios.size())
        << "duplicate scenario id in the " << to_string(kind) << " matrix";
  }
}

TEST(Matrix, ReducedIsSubsetOfFull) {
  const auto full = ids_of(build_matrix(MatrixKind::Full));
  for (const auto& id : ids_of(build_matrix(MatrixKind::Reduced))) {
    EXPECT_TRUE(full.count(id) == 1)
        << id << " is in the reduced matrix but not the full one";
  }
}

TEST(Matrix, ReducedCoversTheGatingAxes) {
  const auto scenarios = build_matrix(MatrixKind::Reduced);
  bool over_capacity = false;
  bool layered = false;
  bool reflective = false;
  bool paper = false;
  for (const auto& s : scenarios) {
    if (s.kind == CellKind::Paper) {
      paper = true;
      continue;
    }
    over_capacity = over_capacity || s.block_limit != 0;
    layered = layered || s.materials == Materials::Layered;
    reflective = reflective || s.boundary == mesh::Boundary::Reflective;
  }
  EXPECT_TRUE(over_capacity)
      << "reduced matrix must include an over-capacity residency window";
  EXPECT_TRUE(layered);
  EXPECT_TRUE(reflective);
  EXPECT_TRUE(paper);
}

TEST(Matrix, FullCoversEveryPaperBenchmark) {
  const auto scenarios = build_matrix(MatrixKind::Full);
  std::set<std::string> papers;
  for (const auto& s : scenarios) {
    if (s.kind == CellKind::Paper) {
      papers.insert(s.problem.name());
    }
  }
  for (const auto& problem : mapping::paper_benchmarks()) {
    EXPECT_TRUE(papers.count(problem.name()) == 1)
        << problem.name() << " missing from the full matrix";
  }
}

TEST(Matrix, ParseMatrixNames) {
  MatrixKind kind = MatrixKind::Full;
  EXPECT_TRUE(parse_matrix("reduced", kind));
  EXPECT_EQ(kind, MatrixKind::Reduced);
  EXPECT_TRUE(parse_matrix("full", kind));
  EXPECT_EQ(kind, MatrixKind::Full);
  EXPECT_FALSE(parse_matrix("everything", kind));
}

TEST(Matrix, IdEncodesEveryAxis) {
  Scenario s;
  s.kind = CellKind::Sim;
  s.problem = mapping::Problem{dg::ProblemKind::ElasticCentral, 2, 3};
  s.expansion = mapping::ExpansionMode::Elastic3;
  s.boundary = mesh::Boundary::Reflective;
  s.materials = Materials::Layered;
  s.block_limit = 96;
  EXPECT_EQ(s.id(), "sim/elastic-central-l2/Er/reflective/layered/win96");
}

}  // namespace
}  // namespace wavepim::eval
