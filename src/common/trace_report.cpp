#include "common/trace_report.h"

#include <cstdio>

#include "common/units.h"

namespace wavepim {

namespace {

[[nodiscard]] std::string ns_to_text(double ns) {
  return format_time(Seconds(ns * 1e-9));
}

}  // namespace

TextTable trace_summary_table(const trace::Summary& summary) {
  TextTable table({"Span", "Count", "Total", "Mean", "p50", "p99", "Share"});
  const double wall = static_cast<double>(summary.duration_ns());
  for (const auto& s : summary.spans) {
    const double share =
        wall > 0.0 ? 100.0 * static_cast<double>(s.covered_ns) / wall : 0.0;
    char share_text[16];
    std::snprintf(share_text, sizeof(share_text), "%.1f%%", share);
    table.add_row({s.name, std::to_string(s.count),
                   ns_to_text(static_cast<double>(s.total_ns)),
                   ns_to_text(s.mean_ns()),
                   ns_to_text(static_cast<double>(s.p50_ns)),
                   ns_to_text(static_cast<double>(s.p99_ns)), share_text});
  }
  for (const auto& c : summary.counters) {
    table.add_row({c.name, std::to_string(c.samples), TextTable::num(c.sum),
                   TextTable::num(c.samples > 0
                                      ? c.sum / static_cast<double>(c.samples)
                                      : 0.0),
                   "-", "-", "-"});
  }
  return table;
}

void print_trace_summary(const trace::Summary& summary) {
  trace_summary_table(summary).print();
  std::printf("trace: %s wall, %llu dropped event(s)\n",
              ns_to_text(static_cast<double>(summary.duration_ns())).c_str(),
              static_cast<unsigned long long>(summary.dropped));
}

}  // namespace wavepim
