// paper_eval's baseline gate compares label strings (field hashes) and
// metrics at 1e-6 — that only works if a matrix cell serialises to the
// same bytes on every run and at every thread count. This pins the
// guarantee the Exec/BatchConformance suites give the simulator at the
// report layer: run twice, run wide, dump, compare bytes.
#include <gtest/gtest.h>

#include <string>

#include "common/json.h"
#include "eval/report.h"
#include "eval/runner.h"

namespace wavepim::eval {
namespace {

Scenario sim_scenario(std::uint32_t block_limit, mapping::ExecPath exec) {
  Scenario s;
  s.kind = CellKind::Sim;
  s.problem = mapping::Problem{dg::ProblemKind::Acoustic, 2, 3};
  s.block_limit = block_limit;
  s.exec = exec;
  return s;
}

std::string dump_cell(const Scenario& s, int threads) {
  RunOptions options;
  options.threads = threads;
  const auto cells = run_scenario(s, options, nullptr);
  EXPECT_EQ(cells.size(), 1u);
  return json::dump(cell_to_json(cells[0]), 1);
}

TEST(Determinism, ResidentCellIsByteIdenticalAcrossRunsAndThreads) {
  const Scenario s = sim_scenario(0, mapping::ExecPath::Compiled);
  const std::string first = dump_cell(s, 1);
  EXPECT_EQ(dump_cell(s, 1), first) << "re-run diverged";
  EXPECT_EQ(dump_cell(s, 4), first) << "thread count leaked into the report";
}

TEST(Determinism, OverCapacityCellIsByteIdenticalAcrossRunsAndThreads) {
  // block_limit 32 forces the batched residency window — the axis where
  // slice staging order could plausibly leak nondeterminism.
  const Scenario s = sim_scenario(32, mapping::ExecPath::Compiled);
  const std::string first = dump_cell(s, 1);
  EXPECT_EQ(dump_cell(s, 1), first) << "re-run diverged";
  EXPECT_EQ(dump_cell(s, 4), first) << "thread count leaked into the report";
  EXPECT_NE(first.find("\"residency\": \"windowed\""), std::string::npos)
      << "cell did not actually run through the residency window";
}

TEST(Determinism, WordCellIsByteIdenticalAcrossRunsAndThreads) {
  // The word tier adds the vector engine and (in the runner) the full
  // differential witness — both must serialise identically at any
  // thread count, witness counters included.
  const Scenario s = sim_scenario(32, mapping::ExecPath::Word);
  const std::string first = dump_cell(s, 1);
  EXPECT_EQ(dump_cell(s, 1), first) << "re-run diverged";
  EXPECT_EQ(dump_cell(s, 4), first) << "thread count leaked into the report";
  EXPECT_NE(first.find("witness_mismatches"), std::string::npos)
      << "word cell did not carry the witness counters";
}

TEST(Determinism, TiersAgreeOnTheFieldHash) {
  // The two execution tiers are documented as bit-identical; their
  // report cells must therefore carry the same field_hash label (the
  // cost/residency metrics agree too, but exec/id fields differ).
  std::string hashes[std::size(mapping::kAllExecPaths)];
  int i = 0;
  for (const auto exec : mapping::kAllExecPaths) {
    const auto cells = run_scenario(sim_scenario(32, exec), {}, nullptr);
    ASSERT_EQ(cells.size(), 1u);
    for (const auto& [key, value] : cells[0].labels) {
      if (key == "field_hash") {
        hashes[i] = value;
      }
    }
    ASSERT_FALSE(hashes[i].empty());
    ++i;
  }
  EXPECT_EQ(hashes[0], hashes[1]);
}

TEST(Determinism, WordCellWitnessRunsCleanOverTheFullCadence) {
  // The runner pins witness cadence 1 on word cells: every phase of
  // every schedule step is re-executed bit-serially. Zero mismatches is
  // the tentpole's conformance claim at the report layer.
  const auto cells =
      run_scenario(sim_scenario(32, mapping::ExecPath::Word), {}, nullptr);
  ASSERT_EQ(cells.size(), 1u);
  double checks = -1.0;
  double mismatches = -1.0;
  for (const auto& [key, value] : cells[0].metrics) {
    if (key == "witness_checks") {
      checks = value;
    } else if (key == "witness_mismatches") {
      mismatches = value;
    }
  }
  EXPECT_GT(checks, 0.0) << "witness never ran";
  EXPECT_EQ(mismatches, 0.0);
}

TEST(Determinism, PaperCellsAreByteIdenticalAcrossRuns) {
  // Paper cells come from the analytic estimator — pure arithmetic, but
  // the gate hashes their serialisation too, so pin it.
  Scenario s;
  s.kind = CellKind::Paper;
  s.problem = mapping::paper_benchmarks()[0];
  const auto once = run_scenario(s, {}, nullptr);
  const auto twice = run_scenario(s, {}, nullptr);
  ASSERT_EQ(once.size(), twice.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(json::dump(cell_to_json(once[i])),
              json::dump(cell_to_json(twice[i])));
  }
}

}  // namespace
}  // namespace wavepim::eval
