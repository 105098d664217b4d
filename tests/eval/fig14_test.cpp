// Fig. 14 (H-tree vs bus under flux contention) with and without the
// estimator's link statistics (the two NetBackendKind values perfbench
// times). Both run one list schedule and one fold, so every Fig. 14 row
// must be the same number under each, and the figure's shape claims must
// hold under both.
#include <gtest/gtest.h>

#include "eval/figures.h"
#include "mapping/estimator.h"

namespace wavepim::eval {
namespace {

TEST(Fig14, RowsAreBitEqualAcrossBackendKinds) {
  const Fig14Data cycle = compute_fig14_data(pim::NetBackendKind::Cycle);
  const Fig14Data analytic = compute_fig14_data(pim::NetBackendKind::Analytic);
  ASSERT_EQ(cycle.rows.size(), 8u);
  ASSERT_EQ(analytic.rows.size(), cycle.rows.size());
  for (std::size_t i = 0; i < cycle.rows.size(); ++i) {
    const Fig14Row& c = cycle.rows[i];
    const Fig14Row& a = analytic.rows[i];
    SCOPED_TRACE(c.label + " / " + pim::to_string(c.topology));
    EXPECT_EQ(c.label, a.label);
    EXPECT_EQ(c.topology, a.topology);
    EXPECT_EQ(c.flux_intra.value(), a.flux_intra.value());
    EXPECT_EQ(c.flux_inter.value(), a.flux_inter.value());
    EXPECT_EQ(c.step_time.value(), a.step_time.value());
  }
  for (const Fig14Data* data : {&cycle, &analytic}) {
    const auto claims = fig14_claims(*data);
    EXPECT_EQ(claims.size(), 3u);
    for (const ShapeClaim& claim : claims) {
      EXPECT_TRUE(claim.pass) << claim.claim;
    }
  }
}

TEST(Fig14, RowsMatchLoneEstimates) {
  // The rows in order: each paper case, H-tree before Bus.
  struct Case {
    mapping::Problem problem;
    pim::ChipConfig (*chip)(pim::Topology);
    const char* label;
  };
  const Case cases[] = {
      {{dg::ProblemKind::Acoustic, 4, 8}, pim::chip_512mb,
       "Acoustic_4 / 512MB (N)"},
      {{dg::ProblemKind::Acoustic, 4, 8}, pim::chip_2gb,
       "Acoustic_4 / 2GB (Ep)"},
      {{dg::ProblemKind::ElasticCentral, 4, 8}, pim::chip_2gb,
       "Elastic-Central_4 / 2GB (Er)"},
      {{dg::ProblemKind::ElasticCentral, 4, 8}, pim::chip_8gb,
       "Elastic-Central_4 / 8GB (Er&Ep)"},
  };
  const Fig14Data data = compute_fig14_data();
  ASSERT_EQ(data.rows.size(), 8u);
  std::size_t i = 0;
  for (const Case& c : cases) {
    for (const auto topology : {pim::Topology::HTree, pim::Topology::Bus}) {
      const Fig14Row& row = data.rows[i++];
      SCOPED_TRACE(row.label + " / " + pim::to_string(row.topology));
      EXPECT_EQ(row.label, c.label);
      EXPECT_EQ(row.topology, topology);
      const mapping::Estimator lone(c.problem, c.chip(topology));
      const mapping::StepEstimate& est = lone.estimate();
      EXPECT_EQ(row.flux_intra.value(), est.flux_intra_element.value());
      EXPECT_EQ(row.flux_inter.value(), est.flux_inter_element.value());
      EXPECT_EQ(row.step_time.value(), est.step_time.value());
    }
  }
}

}  // namespace
}  // namespace wavepim::eval
