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
#include "service/job.h"

namespace wavepim::eval {
namespace {

Scenario sim_scenario(std::uint32_t block_limit) {
  Scenario s;
  s.kind = CellKind::Sim;
  s.problem = mapping::Problem{dg::ProblemKind::Acoustic, 2, 3};
  s.block_limit = block_limit;
  return s;
}

std::string dump_cell(const Scenario& s, int threads) {
  RunOptions options;
  options.threads = threads;
  const auto cells = run_scenario(s, options, nullptr);
  EXPECT_EQ(cells.size(), 1u);
  return json::dump(cell_to_json(cells[0]), 1);
}

std::string cell_hash(const Scenario& s) {
  const auto cells = run_scenario(s, {}, nullptr);
  EXPECT_EQ(cells.size(), 1u);
  for (const auto& [key, value] : cells.at(0).labels) {
    if (key == "field_hash") {
      return value;
    }
  }
  return {};
}

struct DirectRun {
  std::string hash;
  mapping::PimSimulation::WitnessStats witness;
};

/// Runs a uniform-media scenario outside the runner on a chosen tier and
/// witness cadence, from the runner's seeded state (the service's initial
/// state at job seed 0).
DirectRun run_direct(const Scenario& s, mapping::ExecPath path,
                     std::uint32_t witness) {
  pim::ChipConfig chip = pim::chip_512mb();
  chip.block_limit = s.block_limit;
  mapping::PimSimulation sim(s.problem, s.expansion, chip, s.boundary);
  sim.set_exec_path(path);
  sim.set_witness_interval(witness);
  sim.load_state(service::initial_state({}, sim));
  for (int i = 0; i < s.sim_steps; ++i) {
    sim.step(2.0e-4);
  }
  return {service::field_hash(sim.read_state()), sim.witness_stats()};
}

TEST(Determinism, ResidentCellIsByteIdenticalAcrossRunsAndThreads) {
  const Scenario s = sim_scenario(0);
  const std::string first = dump_cell(s, 1);
  EXPECT_EQ(dump_cell(s, 1), first) << "re-run diverged";
  EXPECT_EQ(dump_cell(s, 4), first) << "thread count leaked into the report";
}

TEST(Determinism, OverCapacityCellIsByteIdenticalAcrossRunsAndThreads) {
  // block_limit 32 forces the batched residency window — the axis where
  // slice staging order could plausibly leak nondeterminism.
  const Scenario s = sim_scenario(32);
  const std::string first = dump_cell(s, 1);
  EXPECT_EQ(dump_cell(s, 1), first) << "re-run diverged";
  EXPECT_EQ(dump_cell(s, 4), first) << "thread count leaked into the report";
  EXPECT_NE(first.find("\"residency\": \"windowed\""), std::string::npos)
      << "cell did not actually run through the residency window";
}

TEST(Determinism, WordCellIsByteIdenticalAcrossRunsAndThreads) {
  // Sim cells run the word tier without the witness; an elastic-Riemann
  // cell on the 9-block split must serialise identically at any thread
  // count too, and carry no witness counters.
  Scenario s = sim_scenario(0);
  s.problem = mapping::Problem{dg::ProblemKind::ElasticRiemann, 1, 3};
  s.expansion = mapping::ExpansionMode::Elastic9;
  const std::string first = dump_cell(s, 1);
  EXPECT_EQ(dump_cell(s, 1), first) << "re-run diverged";
  EXPECT_EQ(dump_cell(s, 4), first) << "thread count leaked into the report";
  EXPECT_EQ(first.find("witness_"), std::string::npos);
}

TEST(Determinism, TiersAgreeOnTheFieldHash) {
  // The two execution tiers are documented as bit-identical: the compiled
  // tier, run outside the runner from the same seeded state, must land
  // on the field_hash of the (word-tier) cell.
  const Scenario s = sim_scenario(32);
  const std::string hash = cell_hash(s);
  ASSERT_FALSE(hash.empty());
  EXPECT_EQ(run_direct(s, mapping::ExecPath::Compiled, 0).hash, hash);
}

TEST(Determinism, WordCellWitnessRunsCleanOverTheFullCadence) {
  // The cell's run under the witness at cadence 1: every phase of every
  // schedule step is re-executed bit-serially. Zero mismatches, and the
  // witness leaves the cell's field_hash unchanged.
  const Scenario s = sim_scenario(32);
  const DirectRun run = run_direct(s, mapping::ExecPath::Word, 1);
  EXPECT_GT(run.witness.checks, 0u) << "witness never ran";
  EXPECT_EQ(run.witness.mismatches, 0u);
  EXPECT_EQ(run.hash, cell_hash(s));
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
