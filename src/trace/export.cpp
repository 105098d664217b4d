#include "trace/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "common/statistics.h"

namespace wavepim::trace {

namespace {

/// JSON string escaping for event names (control chars, quotes,
/// backslashes). Names are ASCII identifiers in practice, but the
/// exporter must never emit invalid JSON whatever a caller passes.
void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

[[nodiscard]] std::string_view category_of(std::string_view name) {
  const auto dot = name.find('.');
  return dot == std::string_view::npos ? std::string_view("wavepim")
                                       : name.substr(0, dot);
}

/// Trims a %f-formatted number ("1.250000") to at most 3 decimals with no
/// trailing zeros, keeping the JSON compact and diff-friendly.
void append_micros(std::string& out, std::uint64_t ts_ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ts_ns / 1000,
                static_cast<unsigned>(ts_ns % 1000));
  out += buf;
}

void append_event(std::string& out, const Event& e) {
  const char* ph = "i";
  switch (e.type) {
    case EventType::Begin:
      ph = "B";
      break;
    case EventType::End:
      ph = "E";
      break;
    case EventType::Instant:
      ph = "i";
      break;
    case EventType::Counter:
      ph = "C";
      break;
  }
  out += "{\"name\":";
  append_json_string(out, e.name != nullptr ? e.name : "?");
  out += ",\"cat\":";
  append_json_string(out, category_of(e.name != nullptr ? e.name : "?"));
  out += ",\"ph\":\"";
  out += ph;
  out += "\",\"ts\":";
  append_micros(out, e.ts_ns);
  out += ",\"pid\":1,\"tid\":";
  out += std::to_string(e.tid);
  if (e.type == EventType::Counter) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%.17g}", e.value);
    out += buf;
  } else if (e.type == EventType::Instant) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"s\":\"t\",\"args\":{\"v\":%.17g}",
                  e.value);
    out += buf;
  } else if (e.type == EventType::Begin && e.value != 0.0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"v\":%.17g}", e.value);
    out += buf;
  }
  out += "}";
}

}  // namespace

Summary summarize(std::span<const Event> events) {
  Summary summary;
  summary.dropped = Collector::instance().dropped();
  if (events.empty()) {
    return summary;
  }
  summary.first_ts_ns = events.front().ts_ns;
  summary.last_ts_ns = events.front().ts_ns;

  struct Open {
    const char* name;
    std::uint64_t ts_ns;
  };
  std::map<std::uint32_t, std::vector<Open>> stacks;  // per thread
  std::map<std::string_view, SpanStats> spans;
  std::map<std::string_view, std::vector<double>> durations;
  using Interval = std::pair<std::uint64_t, std::uint64_t>;  // [begin, end)
  std::map<std::string_view, std::vector<Interval>> intervals;
  std::map<std::string_view, CounterStats> counters;

  for (const Event& e : events) {
    summary.first_ts_ns = std::min(summary.first_ts_ns, e.ts_ns);
    summary.last_ts_ns = std::max(summary.last_ts_ns, e.ts_ns);
    const std::string_view name = e.name != nullptr ? e.name : "?";
    switch (e.type) {
      case EventType::Begin:
        stacks[e.tid].push_back({e.name, e.ts_ns});
        break;
      case EventType::End: {
        auto& stack = stacks[e.tid];
        // Matching Begin should be on top (RAII discipline); tolerate a
        // ring-truncated trace by unwinding to the nearest match.
        while (!stack.empty() &&
               std::string_view(stack.back().name) != name) {
          stack.pop_back();
        }
        if (stack.empty()) {
          break;  // Begin lost to ring overwrite
        }
        const std::uint64_t dur = e.ts_ns - stack.back().ts_ns;
        stack.pop_back();
        auto [it, inserted] = spans.try_emplace(name);
        SpanStats& s = it->second;
        if (inserted) {
          s.name = std::string(name);
          s.min_ns = dur;
          s.max_ns = dur;
        }
        s.count += 1;
        s.total_ns += dur;
        s.min_ns = std::min(s.min_ns, dur);
        s.max_ns = std::max(s.max_ns, dur);
        durations[name].push_back(static_cast<double>(dur));
        intervals[name].emplace_back(e.ts_ns - dur, e.ts_ns);
        break;
      }
      case EventType::Instant:
        break;
      case EventType::Counter: {
        auto [it, inserted] = counters.try_emplace(name);
        CounterStats& c = it->second;
        if (inserted) {
          c.name = std::string(name);
        }
        c.samples += 1;
        c.sum += e.value;
        c.last = e.value;
        break;
      }
    }
  }

  for (auto& [name, stats] : spans) {
    const auto& durs = durations[name];
    stats.p50_ns = static_cast<std::uint64_t>(percentile(durs, 50.0));
    stats.p99_ns = static_cast<std::uint64_t>(percentile(durs, 99.0));
    // Covered time: sweep the intervals in start order, counting only
    // what extends past the union so far.
    auto& spans_of = intervals[name];
    std::sort(spans_of.begin(), spans_of.end());
    std::uint64_t covered_to = 0;
    for (const auto& [begin, end] : spans_of) {
      const std::uint64_t from = std::max(begin, covered_to);
      if (end > from) {
        stats.covered_ns += end - from;
        covered_to = end;
      }
    }
    summary.spans.push_back(std::move(stats));
  }
  std::sort(summary.spans.begin(), summary.spans.end(),
            [](const SpanStats& a, const SpanStats& b) {
              return a.total_ns != b.total_ns ? a.total_ns > b.total_ns
                                              : a.name < b.name;
            });
  for (auto& [name, stats] : counters) {
    summary.counters.push_back(std::move(stats));
  }
  return summary;
}

Summary summarize() {
  const auto events = Collector::instance().snapshot();
  return summarize(events);
}

std::string chrome_trace_json(std::span<const Event> events) {
  std::string out;
  out.reserve(events.size() * 96 + 256);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"wavepim\"}}";
  for (const Event& e : events) {
    out += ",\n";
    append_event(out, e);
  }
  out += "\n]}\n";
  return out;
}

std::string chrome_trace_json() {
  const auto events = Collector::instance().snapshot();
  return chrome_trace_json(events);
}

bool write_chrome_trace(const std::string& path) {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok && written != json.size()) {
    std::fclose(f);
  }
  return ok;
}

}  // namespace wavepim::trace
