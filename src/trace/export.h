#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace wavepim::trace {

/// Aggregate of one span name across a trace.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;     ///< completed Begin/End pairs
  std::uint64_t total_ns = 0;  ///< summed wall time (nested spans included)
  /// Wall time during which at least one instance was open on any thread:
  /// the union of the [begin, end) intervals, so never above the trace
  /// extent even when spans overlap across pool workers.
  std::uint64_t covered_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  /// Nearest-rank percentiles over the individual span durations (an
  /// actual sample each, see common/statistics.h percentile()).
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;

  [[nodiscard]] double mean_ns() const {
    return count > 0 ? static_cast<double>(total_ns) /
                           static_cast<double>(count)
                     : 0.0;
  }
};

/// Aggregate of one counter name across a trace.
struct CounterStats {
  std::string name;
  std::uint64_t samples = 0;
  double sum = 0.0;
  double last = 0.0;
};

/// Per-phase rollup of a trace: the table the CLI prints next to the
/// Chrome JSON (`common/trace_report.h` renders it).
struct Summary {
  std::uint64_t first_ts_ns = 0;
  std::uint64_t last_ts_ns = 0;
  std::uint64_t dropped = 0;  ///< events lost to ring overwrites
  std::vector<SpanStats> spans;        ///< sorted by total_ns, descending
  std::vector<CounterStats> counters;  ///< sorted by name

  /// Trace wall-clock extent.
  [[nodiscard]] std::uint64_t duration_ns() const {
    return last_ts_ns - first_ts_ns;
  }
};

/// Aggregates an event list (as returned by `Collector::snapshot`).
/// Begin/End pairs are matched per thread with a stack, so nested and
/// recursive spans aggregate correctly; unbalanced events (e.g. a span
/// whose Begin was overwritten in the ring) are dropped from the stats.
[[nodiscard]] Summary summarize(std::span<const Event> events);

/// Aggregates the process collector's current contents.
[[nodiscard]] Summary summarize();

/// Renders an event list as Chrome trace-event JSON — an object with a
/// `traceEvents` array that loads directly in Perfetto
/// (https://ui.perfetto.dev) or chrome://tracing. Events keep their
/// sequence order; the category of an event is its name's dotted prefix
/// ("pim.volume" -> cat "pim").
[[nodiscard]] std::string chrome_trace_json(std::span<const Event> events);

/// Renders the process collector's current contents.
[[nodiscard]] std::string chrome_trace_json();

/// Writes the collector's contents to `path` as Chrome trace JSON.
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path);

}  // namespace wavepim::trace
