#include "core/wavepim.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "trace/trace.h"

namespace wavepim::core {
namespace {

using dg::ProblemKind;

TEST(System, CompareAllHasFullGrid) {
  const mapping::Problem problem{ProblemKind::Acoustic, 4, 8};
  const auto rows = System::compare_all(problem, 8);
  // 3 unfused + 3 fused + 4 PIM x 2 process nodes = 14 rows.
  ASSERT_EQ(rows.size(), 14u);
  EXPECT_EQ(rows[0].platform, "Unfused-GTX 1080Ti");
  EXPECT_DOUBLE_EQ(rows[0].speedup, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].normalized_time, 1.0);
  int pim_rows = 0;
  for (const auto& row : rows) {
    EXPECT_GT(row.total_time.value(), 0.0);
    EXPECT_GT(row.total_energy.value(), 0.0);
    if (row.is_pim) {
      ++pim_rows;
      EXPECT_GT(row.step_time_peak_method.value(), 0.0);
    }
  }
  EXPECT_EQ(pim_rows, 8);
}

TEST(System, PimBeatsBaselineGpuOnLevel4) {
  // The core claim: the PIM rows (2 GB and up) outperform the unfused
  // GTX 1080Ti baseline on the level-4 benchmarks.
  for (ProblemKind kind : {ProblemKind::Acoustic, ProblemKind::ElasticCentral,
                           ProblemKind::ElasticRiemann}) {
    const auto rows = System::compare_all({kind, 4, 8}, 4);
    for (const auto& row : rows) {
      if (row.is_pim && row.platform.find("512MB") == std::string::npos) {
        EXPECT_GT(row.speedup, 1.0) << row.platform;
      }
    }
  }
}

TEST(System, PimSpeedupOrderedByCapacityOnLevel5) {
  const auto rows =
      System::compare_all({ProblemKind::Acoustic, 5, 8}, 4);
  double prev = 0.0;
  for (const auto& row : rows) {
    if (row.is_pim && row.platform.find("28nm") != std::string::npos) {
      EXPECT_GE(row.speedup, prev) << row.platform;
      prev = row.speedup;
    }
  }
  EXPECT_GT(prev, 1.0);
}

TEST(System, TwelveNmRowsFasterThanTwentyEight) {
  const auto rows = System::compare_all({ProblemKind::Acoustic, 4, 8}, 4);
  double t28 = 0.0;
  double t12 = 0.0;
  double e28 = 0.0;
  double e12 = 0.0;
  for (const auto& row : rows) {
    if (row.platform == "PIM-2GB-28nm") {
      t28 = row.total_time.value();
      e28 = row.total_energy.value();
    }
    if (row.platform == "PIM-2GB-12nm") {
      t12 = row.total_time.value();
      e12 = row.total_energy.value();
    }
  }
  EXPECT_GT(t28, 0.0);
  EXPECT_NEAR(t28 / t12, 3.81, 1e-6);
  EXPECT_GT(e28, 0.0);
  EXPECT_NEAR(e28 / e12, 2.0, 1e-9);
}

/// {map.estimate, net.schedule} spans begun by compare_all over `problems`.
std::pair<std::uint64_t, std::uint64_t> count_estimates_and_schedules(
    std::initializer_list<mapping::Problem> problems) {
  trace::Collector::instance().reset();
  trace::set_enabled(true);
  for (const auto& problem : problems) {
    (void)System::compare_all(problem, 4);
  }
  trace::set_enabled(false);
  std::uint64_t estimates = 0;
  std::uint64_t schedules = 0;
  for (const auto& e : trace::Collector::instance().snapshot()) {
    if (e.name == nullptr || e.type != trace::EventType::Begin) {
      continue;
    }
    estimates += std::string_view(e.name) == "map.estimate";
    schedules += std::string_view(e.name) == "net.schedule";
  }
  trace::Collector::instance().reset();
  return {estimates, schedules};
}

TEST(System, CompareAllEstimatesEachChipOnce) {
  // One modelled run per chip: both process nodes and the peak-method
  // series read the same estimate, so each chip costs one map.estimate.
  // The chips are priced in one call: PIM-512MB schedules four batches
  // (the two face signs share one flux staging batch), PIM-2GB three
  // (its empty volume staging batch is 512MB's), and PIM-8GB and
  // PIM-16GB map Acoustic_4 exactly as PIM-2GB does and schedule none.
  const auto [estimates, schedules] =
      count_estimates_and_schedules({{ProblemKind::Acoustic, 4, 8}});
  EXPECT_EQ(estimates, pim::standard_chips().size());
  EXPECT_EQ(schedules, 7u);
}

TEST(System, CompareAllSchedulesEachDistinctBatchOnce) {
  // The reduced matrix's paper cells: eight estimates, which priced one
  // at a time would schedule 4 batches each (32). Elastic-Riemann_4
  // adds four batches for each of PIM-512MB, 2GB and 8GB, and PIM-16GB
  // repeats PIM-8GB's.
  const auto [estimates, schedules] = count_estimates_and_schedules(
      {{ProblemKind::Acoustic, 4, 8}, {ProblemKind::ElasticRiemann, 4, 8}});
  EXPECT_EQ(estimates, 2 * pim::standard_chips().size());
  EXPECT_EQ(schedules, 19u);
}

TEST(System, CompareAllRowsMatchEstimatorsWithTheirOwnPricers) {
  const std::uint64_t steps = 16;
  for (const auto topology : {pim::Topology::HTree, pim::Topology::Bus}) {
    for (const ProblemKind kind :
         {ProblemKind::Acoustic, ProblemKind::ElasticRiemann}) {
      const mapping::Problem problem{kind, 4, 8};
      const auto rows = System::compare_all(problem, steps, topology);
      for (const auto& chip : pim::standard_chips(topology)) {
        const mapping::Estimator own(problem, chip);
        const auto cost = own.run_cost(steps);
        for (const auto scaling : {pim::ProcessScaling::node_28nm(),
                                   pim::ProcessScaling::node_12nm()}) {
          const std::string platform =
              chip.name + (scaling.speedup > 1.0 ? "-12nm" : "-28nm");
          const ComparisonRow* row = nullptr;
          for (const auto& r : rows) {
            if (r.is_pim && r.platform == platform) {
              row = &r;
            }
          }
          ASSERT_NE(row, nullptr) << platform;
          const Seconds total = cost.time / scaling.speedup;
          EXPECT_EQ(row->total_time.value(), total.value()) << platform;
          EXPECT_EQ(row->step_time.value(),
                    (total / static_cast<double>(steps)).value())
              << platform;
          EXPECT_EQ(row->total_energy.value(),
                    (cost.energy / scaling.energy_saving).value())
              << platform;
          EXPECT_EQ(row->step_time_peak_method.value(),
                    (own.estimate().step_time_peak_method / scaling.speedup)
                        .value())
              << platform;
        }
      }
    }
  }
}

TEST(System, SummaryAggregatesAcrossBenchmarks) {
  std::vector<std::vector<ComparisonRow>> grids;
  for (ProblemKind kind : {ProblemKind::Acoustic,
                           ProblemKind::ElasticCentral}) {
    grids.push_back(System::compare_all({kind, 4, 8}, 4));
  }
  const auto summary = System::summarize_pim(grids, "PIM-2GB-28nm");
  EXPECT_GT(summary.mean_speedup, 1.0);
  EXPECT_GT(summary.mean_energy_saving, 1.0);
  EXPECT_THROW((void)System::summarize_pim(grids, "PIM-bogus"),
               PreconditionError);
}

TEST(System, EnergySavingPeaksForSmallestSufficientChip) {
  // §7.4: a larger chip wastes static power on a small problem, so the
  // 512 MB chip (which holds Acoustic_4 exactly) saves the most energy.
  const auto rows = System::compare_all({ProblemKind::Acoustic, 4, 8}, 4);
  double saving_512 = 0.0;
  double saving_16g = 0.0;
  for (const auto& row : rows) {
    if (row.platform == "PIM-512MB-28nm") {
      saving_512 = row.energy_saving;
    }
    if (row.platform == "PIM-16GB-28nm") {
      saving_16g = row.energy_saving;
    }
  }
  EXPECT_GT(saving_512, saving_16g);
}

}  // namespace
}  // namespace wavepim::core
