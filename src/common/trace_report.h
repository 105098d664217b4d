#pragma once

#include "common/table.h"
#include "trace/export.h"

namespace wavepim {

/// Renders a trace summary as the repo's standard ASCII table: one row
/// per span name (count, summed total, mean, and the share of the
/// trace's wall-clock extent during which the span was open on any
/// thread), followed by the counters. This is the human-readable
/// companion of the Chrome trace JSON the CLI writes with `--trace`.
[[nodiscard]] TextTable trace_summary_table(const trace::Summary& summary);

/// Prints the summary table plus a one-line footer (duration, dropped
/// events) to stdout.
void print_trace_summary(const trace::Summary& summary);

}  // namespace wavepim
