// The baseline gate lives or dies on diff_reports/merge_baseline
// semantics: labels exact, metrics within relative tolerance, reduced
// runs gating against a full baseline without failing its uncovered
// cells. These tests drive them on hand-written documents.
#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"
#include "eval/report.h"

namespace wavepim::eval {
namespace {

json::Value report_with_cell(const char* id, double metric,
                             const char* hash = "aaaa") {
  std::string text = std::string(R"({"schema":"wavepim-paper-eval/1",)") +
                     R"("matrix":"reduced","cells":[{"id":")" + id +
                     R"(","kind":"sim","labels":{"field_hash":")" + hash +
                     R"("},"metrics":{"total_time_s":)" +
                     std::to_string(metric) + R"(}}],"claims":[]})";
  return json::parse(text);
}

TEST(ReportDiff, IdenticalReportsPass) {
  const auto doc = report_with_cell("sim/a", 2.0);
  const auto diff = diff_reports(doc, doc);
  EXPECT_TRUE(diff.ok());
  EXPECT_EQ(diff.compared, 1);
  EXPECT_EQ(diff.regressions, 0);
  EXPECT_EQ(diff.added, 0);
  EXPECT_EQ(diff.ignored, 0);
  EXPECT_DOUBLE_EQ(diff.worst, 0.0);
}

TEST(ReportDiff, ToleranceIsStrictlyGreaterThan) {
  const auto base = report_with_cell("sim/a", 100.0);
  // rel dev = 10/110 ≈ 0.0909… (against the larger magnitude).
  const auto current = report_with_cell("sim/a", 110.0);
  const double rel = 10.0 / 110.0;

  // Deviation exactly at the tolerance passes…
  auto diff = diff_reports(base, current, {.tolerance = rel});
  EXPECT_TRUE(diff.ok());
  EXPECT_NEAR(diff.worst, rel, 1e-12);

  // …and anything tighter trips the gate.
  diff = diff_reports(base, current, {.tolerance = rel * 0.999});
  EXPECT_FALSE(diff.ok());
  EXPECT_EQ(diff.regressions, 1);

  // The default tolerance (1e-6) obviously trips too.
  EXPECT_FALSE(diff_reports(base, current).ok());
}

TEST(ReportDiff, LabelMismatchIsAlwaysARegression) {
  const auto base = report_with_cell("sim/a", 2.0, "aaaa");
  const auto current = report_with_cell("sim/a", 2.0, "bbbb");
  // Even with an infinite metric tolerance a field-hash flip fails.
  const auto diff = diff_reports(base, current, {.tolerance = 1e9});
  EXPECT_FALSE(diff.ok());
  EXPECT_EQ(diff.regressions, 1);
  EXPECT_NE(diff.table.find("field_hash"), std::string::npos);
}

TEST(ReportDiff, MissingMetricIsARegression) {
  const auto base = report_with_cell("sim/a", 2.0);
  const auto current = json::parse(
      R"({"cells":[{"id":"sim/a","labels":{"field_hash":"aaaa"},)"
      R"("metrics":{}}]})");
  const auto diff = diff_reports(base, current);
  EXPECT_FALSE(diff.ok());
  EXPECT_NE(diff.table.find("(missing)"), std::string::npos);
}

TEST(ReportDiff, NonFiniteMetricIsARegression) {
  const auto base = report_with_cell("sim/a", 1.0);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    const auto current = json::Value::make_object(
        {{"cells",
          json::Value::make_array({json::Value::make_object(
              {{"id", json::Value::make_string("sim/a")},
               {"labels", json::Value::make_object(
                              {{"field_hash",
                                json::Value::make_string("aaaa")}})},
               {"metrics", json::Value::make_object(
                               {{"total_time_s",
                                 json::Value::make_number(bad)}})}})})}});
    const auto diff = diff_reports(base, current, {.tolerance = 1e9});
    EXPECT_FALSE(diff.ok());
    EXPECT_EQ(diff.compared, 1);
    EXPECT_EQ(diff.regressions, 1);
    EXPECT_EQ(diff.worst, 0.0);
    EXPECT_NE(diff.table.find("non-finite"), std::string::npos);
  }
}

TEST(ReportDiff, NewCellsAreReportedNotFailed) {
  const auto base = report_with_cell("sim/a", 2.0);
  const auto current = report_with_cell("sim/b", 5.0);
  const auto diff = diff_reports(base, current);
  EXPECT_TRUE(diff.ok());
  EXPECT_EQ(diff.compared, 0);
  EXPECT_EQ(diff.added, 1);
  EXPECT_EQ(diff.ignored, 1);
}

TEST(ReportDiff, UncoveredBaselineCellsAreIgnored) {
  // The CI shape: a reduced run gating against the full baseline.
  const auto base = json::parse(
      R"({"cells":[)"
      R"({"id":"sim/a","labels":{},"metrics":{"m":1}},)"
      R"({"id":"sim/b","labels":{},"metrics":{"m":2}},)"
      R"({"id":"sim/c","labels":{},"metrics":{"m":3}}]})");
  const auto current =
      json::parse(R"({"cells":[{"id":"sim/b","labels":{},"metrics":{"m":2}}]})");
  const auto diff = diff_reports(base, current);
  EXPECT_TRUE(diff.ok());
  EXPECT_EQ(diff.compared, 1);
  EXPECT_EQ(diff.ignored, 2);
}

TEST(ReportDiff, RejectsDocumentsWithoutCells) {
  const auto good = report_with_cell("sim/a", 2.0);
  const auto bad = json::parse(R"({"schema":"x"})");
  EXPECT_THROW((void)diff_reports(bad, good), Error);
  EXPECT_THROW((void)diff_reports(good, bad), Error);
  const auto wrong_kind = json::parse(R"({"cells":{}})");
  EXPECT_THROW((void)diff_reports(wrong_kind, good), Error);
}

TEST(MergeBaseline, FreshBaselineIsTheRunItself) {
  const auto run = report_with_cell("sim/a", 2.0);
  const auto merged = merge_baseline(nullptr, run);
  const auto diff = diff_reports(merged, run);
  EXPECT_TRUE(diff.ok());
  EXPECT_EQ(diff.compared, 1);
  EXPECT_EQ(merged.find("schema")->as_string(), kReportSchema);
}

TEST(MergeBaseline, KeepsOrderReplacesRerunAppendsNew) {
  const auto existing = json::parse(
      R"({"cells":[)"
      R"({"id":"sim/a","labels":{},"metrics":{"m":1}},)"
      R"({"id":"sim/b","labels":{},"metrics":{"m":2}}],"claims":[]})");
  const auto run = json::parse(
      R"({"matrix":"reduced","cells":[)"
      R"({"id":"sim/c","labels":{},"metrics":{"m":30}},)"
      R"({"id":"sim/b","labels":{},"metrics":{"m":20}}],"claims":[]})");
  const auto merged = merge_baseline(&existing, run);

  const auto& cells = merged.find("cells")->as_array();
  ASSERT_EQ(cells.size(), 3u);
  // Existing order first (a untouched, b replaced), then the new cell.
  EXPECT_EQ(cells[0].find("id")->as_string(), "sim/a");
  EXPECT_DOUBLE_EQ(cells[0].find("metrics")->find("m")->as_number(), 1.0);
  EXPECT_EQ(cells[1].find("id")->as_string(), "sim/b");
  EXPECT_DOUBLE_EQ(cells[1].find("metrics")->find("m")->as_number(), 20.0);
  EXPECT_EQ(cells[2].find("id")->as_string(), "sim/c");
}

TEST(MergeBaseline, KeepsExistingClaimsWhenRunHasNone) {
  const auto existing = json::parse(
      R"({"cells":[],"claims":[{"claim":"speedup grows","pass":true}]})");
  const auto reduced_run = json::parse(R"({"cells":[],"claims":[]})");
  const auto merged = merge_baseline(&existing, reduced_run);
  ASSERT_EQ(merged.find("claims")->as_array().size(), 1u);
  EXPECT_EQ(
      merged.find("claims")->as_array()[0].find("claim")->as_string(),
      "speedup grows");

  const auto full_run = json::parse(
      R"({"cells":[],"claims":[{"claim":"new claim","pass":true}]})");
  const auto merged2 = merge_baseline(&existing, full_run);
  ASSERT_EQ(merged2.find("claims")->as_array().size(), 1u);
  EXPECT_EQ(
      merged2.find("claims")->as_array()[0].find("claim")->as_string(),
      "new claim");
}

TEST(MergeBaseline, RoundTripsThroughDumpAndParse) {
  const auto run = report_with_cell("sim/a", 0.1234567890123456789);
  const auto merged = merge_baseline(nullptr, run);
  const std::string text = json::dump(merged, 1);
  const auto reparsed = json::parse(text);
  // serialize(parse(x)) must be a fixed point — the committed baseline
  // is diffed byte-for-byte by reviewers and value-wise by the gate.
  EXPECT_EQ(json::dump(reparsed, 1), text);
  EXPECT_TRUE(diff_reports(reparsed, run).ok());
}

}  // namespace
}  // namespace wavepim::eval
