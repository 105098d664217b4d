// check_trace — validates a Chrome trace-event JSON file produced by
// --trace: the document parses, traceEvents is a well-formed array,
// Begin/End events balance per thread, and the expected simulator spans
// are present. CI's trace lane runs it against quickstart --trace
// output.
//
// Usage: check_trace <trace.json> [required-name ...]
// With no explicit list, the default simulator span set is required. An
// explicit required name is satisfied by a span *or* a counter of that
// name, so CI lanes can pin counter families (e.g. the cycle net
// backend's net.link.utilization / net.link.stall_cycles /
// net.link.queue_depth) alongside spans.
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"

using namespace wavepim;

namespace {

/// Spans every quickstart run must contain.
/// batch.load/batch.store bracket the schedule's Load/Store steps even
/// when fully resident; hbm.stage only appears on batched (capped-chip)
/// runs, so CI's batched lane requires it explicitly.
const char* const kDefaultRequiredSpans[] = {
    "pim.step",      "pim.rk_stage",      "pim.volume",
    "pim.flux",      "pim.integration",   "pim.settle",
    "pim.drain_phase", "pim.drain_network",
    "batch.load",    "batch.store",
    "pim.load_state", "pim.read_state",
    "dg.step",       "dg.rk_stage",       "dg.volume",
    "dg.flux",       "net.schedule",      "pool.parallel_for",
};

/// Spans every wavepim_serve trace must contain (detected by any
/// `service.*` event): the scheduler's run/bind/quantum/complete cycle
/// plus the tenant simulations underneath. No dg.* here — the service
/// runs the PIM path only.
const char* const kServiceRequiredSpans[] = {
    "service.run",  "service.bind",   "service.quantum",
    "service.complete", "pim.step",   "pim.load_state",
    "pim.read_state",
};

/// Counters the service summary is built from.
const char* const kServiceRequiredCounters[] = {
    "service.queue_depth", "service.jobs", "service.chip_utilization",
};

int fail(const std::string& message) {
  std::fprintf(stderr, "check_trace: FAIL: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: check_trace <trace.json> [span ...]\n");
    return 2;
  }

  std::ifstream in(argv[1], std::ios::binary);
  if (!in) {
    return fail(std::string("cannot open ") + argv[1]);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const Error& e) {
    return fail(std::string("invalid JSON: ") + e.what());
  }

  if (!doc.is_object()) {
    return fail("top level is not an object");
  }
  const json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail("missing traceEvents array");
  }

  // Walk the events: every entry needs name/ph/ts/pid/tid, B/E must
  // balance per thread (and match names LIFO), and counters need args.
  std::map<double, std::vector<std::string>> open_spans;  // tid -> stack
  std::set<std::string> seen_spans;
  std::set<std::string> seen_counters;
  bool service_trace = false;
  std::size_t num_events = 0;
  for (const auto& event : events->as_array()) {
    if (!event.is_object()) {
      return fail("traceEvents entry is not an object");
    }
    const json::Value* name = event.find("name");
    const json::Value* ph = event.find("ph");
    if (name == nullptr || !name->is_string() || ph == nullptr ||
        !ph->is_string()) {
      return fail("event without string name/ph");
    }
    const std::string& phase = ph->as_string();
    if (phase == "M") {
      continue;  // metadata carries no ts/tid
    }
    const json::Value* ts = event.find("ts");
    const json::Value* pid = event.find("pid");
    const json::Value* tid = event.find("tid");
    if (ts == nullptr || !ts->is_number() || pid == nullptr ||
        !pid->is_number() || tid == nullptr || !tid->is_number()) {
      return fail("event " + name->as_string() + " missing ts/pid/tid");
    }
    ++num_events;
    if (name->as_string().rfind("service.", 0) == 0) {
      service_trace = true;
    }
    if (phase == "B") {
      open_spans[tid->as_number()].push_back(name->as_string());
      seen_spans.insert(name->as_string());
    } else if (phase == "E") {
      auto& stack = open_spans[tid->as_number()];
      if (stack.empty()) {
        return fail("unmatched E event for " + name->as_string());
      }
      if (stack.back() != name->as_string()) {
        return fail("E event " + name->as_string() +
                    " closes span " + stack.back());
      }
      stack.pop_back();
    } else if (phase == "C") {
      const json::Value* args = event.find("args");
      if (args == nullptr || !args->is_object() ||
          args->as_object().empty()) {
        return fail("counter " + name->as_string() + " without args");
      }
      seen_counters.insert(name->as_string());
    } else if (phase != "i") {
      return fail("unknown phase '" + phase + "'");
    }
  }
  for (const auto& [tid, stack] : open_spans) {
    if (!stack.empty()) {
      return fail("span " + stack.back() + " left open on tid " +
                  std::to_string(static_cast<long long>(tid)));
    }
  }
  if (num_events == 0) {
    return fail("trace contains no events");
  }

  std::vector<std::string> required;
  if (argc > 2) {
    // Explicit names: a span or a counter of that name satisfies it.
    for (int i = 2; i < argc; ++i) {
      if (seen_spans.count(argv[i]) == 0 && seen_counters.count(argv[i]) == 0) {
        return fail(std::string("required span or counter ") + argv[i] +
                    " not present");
      }
    }
    std::printf("check_trace: OK: %zu events, %zu distinct spans in %s\n",
                num_events, seen_spans.size(), argv[1]);
    return 0;
  }
  if (service_trace) {
    // A scheduler trace: require the service family (and its summary
    // counters) instead of the solo-run dg/quickstart span set.
    required.assign(std::begin(kServiceRequiredSpans),
                    std::end(kServiceRequiredSpans));
    for (const char* counter : kServiceRequiredCounters) {
      if (seen_counters.count(counter) == 0) {
        return fail(std::string("required counter ") + counter +
                    " not present");
      }
    }
  } else {
    required.assign(std::begin(kDefaultRequiredSpans),
                    std::end(kDefaultRequiredSpans));
  }
  for (const auto& span : required) {
    if (seen_spans.count(span) == 0) {
      return fail("required span " + span + " not present");
    }
  }

  std::printf("check_trace: OK: %zu events, %zu distinct spans in %s\n",
              num_events, seen_spans.size(), argv[1]);
  return 0;
}
