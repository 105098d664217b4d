#include "trace/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/trace_report.h"
#include "trace/clock.h"
#include "trace/export.h"

namespace wavepim::trace {
namespace {

/// Enables tracing on a clean collector for the test's lifetime.
class ScopedTracing {
 public:
  ScopedTracing() {
    Collector::instance().reset();
    set_enabled(true);
  }
  ~ScopedTracing() {
    set_enabled(false);
    Collector::instance().reset();
  }
};

TEST(TraceClock, IsMonotonic) {
  const std::uint64_t a = now_ns();
  const std::uint64_t b = now_ns();
  EXPECT_GE(b, a);
}

TEST(TraceClock, StopwatchMeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::uint64_t first = watch.elapsed_ns();
  EXPECT_GE(first, 1'000'000u);  // at least 1 ms registered
  watch.restart();
  EXPECT_LT(watch.elapsed_ns(), first);
  EXPECT_GT(watch.elapsed_seconds(), 0.0);
}

TEST(Trace, DisabledByDefaultRecordsNothing) {
  Collector::instance().reset();
  ASSERT_FALSE(enabled());
  {
    Span span("test.noop");
    instant("test.noop_instant");
    counter("test.noop_counter", 1.0);
  }
  EXPECT_EQ(Collector::instance().num_events(), 0u);
}

TEST(Trace, RecordsSpanPairsInOrder) {
  ScopedTracing tracing;
  {
    Span outer("test.outer");
    { Span inner("test.inner", 7.0); }
  }
  const auto events = Collector::instance().snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(std::string(events[0].name), "test.outer");
  EXPECT_EQ(events[0].type, EventType::Begin);
  EXPECT_EQ(std::string(events[1].name), "test.inner");
  EXPECT_EQ(events[1].type, EventType::Begin);
  EXPECT_DOUBLE_EQ(events[1].value, 7.0);
  EXPECT_EQ(std::string(events[2].name), "test.inner");
  EXPECT_EQ(events[2].type, EventType::End);
  EXPECT_EQ(std::string(events[3].name), "test.outer");
  EXPECT_EQ(events[3].type, EventType::End);
  // Sequence numbers are strictly increasing and timestamps monotone.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST(Trace, ResetRestartsSequenceNumbers) {
  ScopedTracing tracing;
  instant("test.first");
  Collector::instance().reset();
  instant("test.second");
  const auto events = Collector::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name), "test.second");
  EXPECT_EQ(events[0].seq, 0u);
}

TEST(Trace, RingWrapKeepsNewestAndCountsDropped) {
  Collector::instance().reset();
  Collector::instance().set_ring_capacity(8);
  set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    instant("test.tick", static_cast<double>(i));
  }
  set_enabled(false);
  const auto events = Collector::instance().snapshot();
  // This thread's ring existed before this test (earlier tests recorded
  // from it), so it may still have the default capacity; either way the
  // ring retains the newest events and the drop count is consistent.
  ASSERT_FALSE(events.empty());
  EXPECT_DOUBLE_EQ(events.back().value, 19.0);
  EXPECT_EQ(events.size() + Collector::instance().dropped(), 20u);
  Collector::instance().set_ring_capacity(1 << 16);
  Collector::instance().reset();
}

TEST(Trace, WrappedRingDropsOldestFirst) {
  // A fresh thread gets a fresh ring with the small capacity.
  Collector::instance().reset();
  Collector::instance().set_ring_capacity(4);
  set_enabled(true);
  std::thread recorder([] {
    for (int i = 0; i < 10; ++i) {
      instant("test.wrap", static_cast<double>(i));
    }
  });
  recorder.join();
  set_enabled(false);
  const auto events = Collector::instance().snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events[0].value, 6.0);
  EXPECT_DOUBLE_EQ(events[3].value, 9.0);
  EXPECT_EQ(Collector::instance().dropped(), 6u);
  Collector::instance().set_ring_capacity(1 << 16);
  Collector::instance().reset();
}

TEST(Trace, MergesThreadsBySequence) {
  ScopedTracing tracing;
  instant("test.main");
  std::thread other([] { instant("test.other"); });
  other.join();
  instant("test.main_again");
  const auto events = Collector::instance().snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(std::string(events[0].name), "test.main");
  EXPECT_EQ(std::string(events[1].name), "test.other");
  EXPECT_EQ(std::string(events[2].name), "test.main_again");
  EXPECT_NE(events[0].tid, events[1].tid);
  EXPECT_EQ(Collector::instance().num_threads() >= 2, true);
}

TEST(TraceExport, SummarizeAggregatesNestedSpans) {
  ScopedTracing tracing;
  for (int i = 0; i < 3; ++i) {
    Span outer("test.outer");
    Span inner("test.inner");
  }
  counter("test.count", 2.0);
  counter("test.count", 3.0);
  const Summary summary = summarize();
  ASSERT_EQ(summary.spans.size(), 2u);
  for (const auto& s : summary.spans) {
    EXPECT_EQ(s.count, 3u);
    EXPECT_GE(s.max_ns, s.min_ns);
    EXPECT_GE(s.total_ns, s.max_ns);
  }
  ASSERT_EQ(summary.counters.size(), 1u);
  EXPECT_EQ(summary.counters[0].name, "test.count");
  EXPECT_EQ(summary.counters[0].samples, 2u);
  EXPECT_DOUBLE_EQ(summary.counters[0].sum, 5.0);
  EXPECT_DOUBLE_EQ(summary.counters[0].last, 3.0);
}

TEST(TraceExport, ChromeJsonIsValidAndComplete) {
  ScopedTracing tracing;
  {
    Span span("test.span", 3.0);
    instant("test.marker");
    counter("test.gauge", 42.0);
  }
  const std::string text = chrome_trace_json();
  const auto doc = json::parse(text);
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Metadata + B + i + C + E.
  ASSERT_EQ(events->as_array().size(), 5u);
  const auto& begin = events->as_array()[1];
  EXPECT_EQ(begin.find("name")->as_string(), "test.span");
  EXPECT_EQ(begin.find("ph")->as_string(), "B");
  EXPECT_EQ(begin.find("cat")->as_string(), "test");
  EXPECT_DOUBLE_EQ(begin.find("args")->find("v")->as_number(), 3.0);
  const auto& gauge = events->as_array()[3];
  EXPECT_EQ(gauge.find("ph")->as_string(), "C");
  EXPECT_DOUBLE_EQ(gauge.find("args")->find("value")->as_number(), 42.0);
}

TEST(TraceExport, EscapesHostileNames) {
  ScopedTracing tracing;
  static const char kName[] = "test.\"quoted\\name\"\n";
  instant(kName);
  const auto doc = json::parse(chrome_trace_json());
  const auto& event = doc.find("traceEvents")->as_array()[1];
  EXPECT_EQ(event.find("name")->as_string(), kName);
}

TEST(TraceExport, SummarizeToleratesTruncatedBegin) {
  // An End without its Begin (lost to a ring overwrite) must not corrupt
  // the aggregation.
  std::vector<Event> events;
  events.push_back({100, 0, "test.lost", 0.0, EventType::End, 1});
  events.push_back({200, 1, "test.whole", 0.0, EventType::Begin, 1});
  events.push_back({350, 2, "test.whole", 0.0, EventType::End, 1});
  const Summary summary = summarize(events);
  ASSERT_EQ(summary.spans.size(), 1u);
  EXPECT_EQ(summary.spans[0].name, "test.whole");
  EXPECT_EQ(summary.spans[0].total_ns, 150u);
}

TEST(TraceExport, MacroCreatesScopedSpan) {
  ScopedTracing tracing;
  {
    WAVEPIM_TRACE_SPAN("test.macro");
    WAVEPIM_TRACE_SPAN("test.macro_value", 4.0);
  }
  EXPECT_EQ(Collector::instance().num_events(), 4u);
}


TEST(TraceExport, SummaryPinsLatencyPercentiles) {
  // Synthetic sequential spans with exact durations: nearest-rank
  // percentiles over {100, 200, 300, 400} ns must hit 200 (p50) and
  // 400 (p99) exactly.
  std::vector<Event> events;
  std::uint64_t ts = 1000;
  std::uint64_t seq = 0;
  for (const std::uint64_t d : {300u, 100u, 400u, 200u}) {
    events.push_back({ts, seq++, "test.span", 0.0, EventType::Begin, 0});
    events.push_back({ts + d, seq++, "test.span", 0.0, EventType::End, 0});
    ts += d + 10;
  }
  const Summary summary = summarize(events);
  ASSERT_EQ(summary.spans.size(), 1u);
  const SpanStats& s = summary.spans[0];
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.min_ns, 100u);
  EXPECT_EQ(s.max_ns, 400u);
  EXPECT_EQ(s.p50_ns, 200u);
  EXPECT_EQ(s.p99_ns, 400u);
}

TEST(TraceExport, ShareCountsOverlappingThreadsOnce) {
  // Two workers run the same span at once: the total sums both, but the
  // share is the wall time during which either was open, so a parallel
  // layer never reads above the whole run.
  std::vector<Event> events;
  std::uint64_t seq = 0;
  const auto add = [&](std::uint64_t ts, const char* name, EventType type,
                       std::uint32_t tid) {
    events.push_back({ts, seq++, name, 0.0, type, tid});
  };
  add(100, "test.run", EventType::Begin, 0);
  add(100, "test.chunk", EventType::Begin, 1);
  add(200, "test.chunk", EventType::Begin, 2);
  add(400, "test.chunk", EventType::End, 1);
  add(600, "test.chunk", EventType::End, 2);
  add(700, "test.chunk", EventType::Begin, 1);
  add(800, "test.chunk", EventType::End, 1);
  add(800, "test.run", EventType::End, 0);
  const Summary summary = summarize(events);
  ASSERT_EQ(summary.duration_ns(), 700u);
  ASSERT_EQ(summary.spans.size(), 2u);
  const SpanStats& chunk = summary.spans[0];
  ASSERT_EQ(chunk.name, "test.chunk");
  EXPECT_EQ(chunk.count, 3u);
  EXPECT_EQ(chunk.total_ns, 300u + 400u + 100u);
  EXPECT_EQ(chunk.covered_ns, 500u + 100u);  // [100, 600) and [700, 800)
  EXPECT_LE(chunk.covered_ns, summary.duration_ns());

  const std::string table = trace_summary_table(summary).to_string();
  EXPECT_NE(table.find("85.7%"), std::string::npos) << table;
  EXPECT_NE(table.find("100.0%"), std::string::npos) << table;  // test.run
  EXPECT_EQ(table.find("114.3%"), std::string::npos) << table;
}

TEST(TraceExport, SingleSpanPercentilesEqualItsDuration) {
  std::vector<Event> events;
  events.push_back({500, 0, "test.solo", 0.0, EventType::Begin, 0});
  events.push_back({750, 1, "test.solo", 0.0, EventType::End, 0});
  const Summary summary = summarize(events);
  ASSERT_EQ(summary.spans.size(), 1u);
  EXPECT_EQ(summary.spans[0].p50_ns, 250u);
  EXPECT_EQ(summary.spans[0].p99_ns, 250u);
}

}  // namespace
}  // namespace wavepim::trace
