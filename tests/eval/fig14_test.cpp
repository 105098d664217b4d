// Fig. 14 (H-tree vs bus under flux contention) with and without the
// estimator's link statistics (the two NetBackendKind values perfbench
// times). Both run one list schedule and one fold, so every Fig. 14 row
// must be the same number under each, and the figure's shape claims must
// hold under both.
#include <gtest/gtest.h>

#include "eval/figures.h"

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

}  // namespace
}  // namespace wavepim::eval
