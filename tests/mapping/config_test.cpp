#include "mapping/config.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace wavepim::mapping {
namespace {

using dg::ProblemKind;

Problem acoustic(int level) { return {ProblemKind::Acoustic, level, 8}; }
Problem elastic(int level) { return {ProblemKind::ElasticCentral, level, 8}; }

TEST(Problem, DerivedSizes) {
  EXPECT_EQ(acoustic(4).num_elements(), 4096u);
  EXPECT_EQ(acoustic(5).num_elements(), 32768u);
  EXPECT_EQ(acoustic(4).nodes_per_element(), 512u);
  EXPECT_EQ(elastic(4).num_vars(), 9u);
  EXPECT_EQ(acoustic(4).name(), "Acoustic_4");
}

TEST(Problem, PaperBenchmarksMatchTable6) {
  const auto b = paper_benchmarks();
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0].name(), "Acoustic_4");
  EXPECT_EQ(b[5].name(), "Elastic-Riemann_5");
  for (const auto& p : b) {
    EXPECT_EQ(p.n1d, 8);  // 512-node elements throughout
  }
}

/// The full Table 5 of the paper, reproduced cell by cell.
struct Table5Case {
  Problem problem;
  const char* chip;
  const char* expected;
};

/// Names each case by its cell ("Acoustic_4 on 512MB"); without it the
/// test names embed the struct's raw bytes, padding and pointers included.
void PrintTo(const Table5Case& c, std::ostream* os) {
  *os << c.problem.name() << " on " << c.chip;
}

class Table5 : public ::testing::TestWithParam<Table5Case> {};

TEST_P(Table5, ConfigurationMatchesPaper) {
  const auto& c = GetParam();
  pim::ChipConfig chip;
  if (std::string(c.chip) == "512MB") {
    chip = pim::chip_512mb();
  } else if (std::string(c.chip) == "2GB") {
    chip = pim::chip_2gb();
  } else if (std::string(c.chip) == "8GB") {
    chip = pim::chip_8gb();
  } else {
    chip = pim::chip_16gb();
  }
  EXPECT_EQ(choose_config(c.problem, chip).label(), c.expected)
      << c.problem.name() << " on " << c.chip;
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, Table5,
    ::testing::Values(
        // Acoustic_4 row: N, Ep, Ep, Ep.
        Table5Case{{ProblemKind::Acoustic, 4, 8}, "512MB", "N"},
        Table5Case{{ProblemKind::Acoustic, 4, 8}, "2GB", "Ep"},
        Table5Case{{ProblemKind::Acoustic, 4, 8}, "8GB", "Ep"},
        Table5Case{{ProblemKind::Acoustic, 4, 8}, "16GB", "Ep"},
        // Elastic_4 row: Er&B, Er, Er&Ep, Er&Ep.
        Table5Case{{ProblemKind::ElasticCentral, 4, 8}, "512MB", "Er&B"},
        Table5Case{{ProblemKind::ElasticCentral, 4, 8}, "2GB", "Er"},
        Table5Case{{ProblemKind::ElasticCentral, 4, 8}, "8GB", "Er&Ep"},
        Table5Case{{ProblemKind::ElasticCentral, 4, 8}, "16GB", "Er&Ep"},
        // Acoustic_5 row: B, B, N, Ep.
        Table5Case{{ProblemKind::Acoustic, 5, 8}, "512MB", "B"},
        Table5Case{{ProblemKind::Acoustic, 5, 8}, "2GB", "B"},
        Table5Case{{ProblemKind::Acoustic, 5, 8}, "8GB", "N"},
        Table5Case{{ProblemKind::Acoustic, 5, 8}, "16GB", "Ep"},
        // Elastic_5 row: Er&B, Er&B, Er&B, Er.
        Table5Case{{ProblemKind::ElasticRiemann, 5, 8}, "512MB", "Er&B"},
        Table5Case{{ProblemKind::ElasticRiemann, 5, 8}, "2GB", "Er&B"},
        Table5Case{{ProblemKind::ElasticRiemann, 5, 8}, "8GB", "Er&B"},
        Table5Case{{ProblemKind::ElasticRiemann, 5, 8}, "16GB", "Er"}));

TEST(ChooseConfig, PaperBatchCounts) {
  // §7.3: "the inputs have to be divided into 32 batches for the
  // refinement-level 5 of elastic wave simulation" on 512 MB.
  const auto c =
      choose_config({ProblemKind::ElasticRiemann, 5, 8}, pim::chip_512mb());
  EXPECT_EQ(c.num_batches, 32u);
  EXPECT_EQ(c.slices_per_batch, 1u);

  // §6.1.2: level 5 on a 2 GB chip holds half of the elements.
  const auto a =
      choose_config({ProblemKind::Acoustic, 5, 8}, pim::chip_2gb());
  EXPECT_EQ(a.num_batches, 2u);
  EXPECT_EQ(a.slices_per_batch, 16u);
  EXPECT_EQ(a.elements_per_batch, 16384u);
}

TEST(ChooseConfig, NonBatchedCoversWholeMesh) {
  const auto c = choose_config(acoustic(4), pim::chip_2gb());
  EXPECT_FALSE(c.batched);
  EXPECT_EQ(c.num_batches, 1u);
  EXPECT_EQ(c.elements_per_batch, 4096u);
}

TEST(ChooseConfig, ThrowsWhenOneSliceCannotFit) {
  // Level 7 elastic: 128*128 elements/slice * 3 blocks = 49k blocks per
  // slice; a 512 MB chip has 4096 blocks.
  EXPECT_THROW(
      (void)choose_config({ProblemKind::ElasticCentral, 7, 8},
                          pim::chip_512mb()),
      CapacityError);
}

TEST(MappingConfig, Labels) {
  MappingConfig c;
  c.expansion = ExpansionMode::None;
  EXPECT_EQ(c.label(), "N");
  c.batched = true;
  EXPECT_EQ(c.label(), "B");
  c.expansion = ExpansionMode::Elastic3;
  EXPECT_EQ(c.label(), "Er&B");
  c.batched = false;
  c.expansion = ExpansionMode::Elastic9;
  EXPECT_EQ(c.label(), "Er&Ep");
}

}  // namespace
}  // namespace wavepim::mapping
