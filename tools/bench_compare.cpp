// bench_compare — compares two google-benchmark JSON reports (the
// committed BENCH_micro_pim.json baseline vs a fresh run) and reports the
// per-benchmark real-time ratio. CI uses it to catch perf regressions;
// --fail-above makes a regression beyond the threshold fail the build.
//
// Usage: bench_compare <baseline.json> <current.json> [--fail-above=R]
//                      [--markdown]
// Ratio is current/baseline real_time, normalised by each report's
// time_unit; Delta is the same comparison as a signed percentage
// (negative = faster than baseline). Without --fail-above the tool only
// reports (exit 0), which tolerates noisy shared runners. --markdown
// renders the table as compact GitHub-flavored markdown for CI step
// summaries; it does not change the exit-code contract.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/parse.h"
#include "common/table.h"

using namespace wavepim;

namespace {

/// name -> real_time in nanoseconds.
using BenchTimes = std::map<std::string, double>;

double unit_to_ns(const std::string& unit) {
  if (unit == "ns") {
    return 1.0;
  }
  if (unit == "us") {
    return 1e3;
  }
  if (unit == "ms") {
    return 1e6;
  }
  if (unit == "s") {
    return 1e9;
  }
  return 1.0;
}

BenchTimes load_report(const char* path) {
  std::ifstream in(path, std::ios::binary);
  WAVEPIM_REQUIRE(static_cast<bool>(in),
                  std::string("cannot open ") + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const json::Value doc = json::parse(buffer.str());
  const json::Value* benchmarks = doc.find("benchmarks");
  WAVEPIM_REQUIRE(benchmarks != nullptr && benchmarks->is_array(),
                  std::string(path) + " has no benchmarks array");
  BenchTimes times;
  for (const auto& b : benchmarks->as_array()) {
    const json::Value* name = b.find("name");
    const json::Value* real_time = b.find("real_time");
    const json::Value* unit = b.find("time_unit");
    if (name == nullptr || !name->is_string() || real_time == nullptr ||
        !real_time->is_number()) {
      continue;  // aggregate/error rows
    }
    const double scale =
        unit != nullptr && unit->is_string() ? unit_to_ns(unit->as_string())
                                             : 1.0;
    times[name->as_string()] = real_time->as_number() * scale;
  }
  return times;
}

std::string format_ns(double ns) {
  char buf[32];
  if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
  }
  return buf;
}

std::string format_delta(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", (ratio - 1.0) * 100.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  double fail_above = 0.0;  // 0 = report-only
  bool markdown = false;
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--markdown") == 0) {
      markdown = true;
    } else if (std::strncmp(argv[i], "--fail-above=", 13) == 0) {
      if (!parse_finite_double(argv[i] + 13, fail_above) ||
          !(fail_above > 1.0)) {
        std::fprintf(stderr,
                     "error: --fail-above wants a finite ratio above 1.0\n");
        return 2;
      }
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare <baseline.json> <current.json> "
                 "[--fail-above=R] [--markdown]\n");
    return 2;
  }

  try {
    const BenchTimes baseline = load_report(paths[0]);
    const BenchTimes current = load_report(paths[1]);

    TextTable table({"Benchmark", "Baseline", "Current", "Delta", "Ratio"});
    int regressions = 0;
    double worst = 0.0;
    for (const auto& [name, base_ns] : baseline) {
      const auto it = current.find(name);
      if (it == current.end()) {
        table.add_row({name, format_ns(base_ns), "(missing)", "-", "-"});
        continue;
      }
      const double ratio = base_ns > 0.0 ? it->second / base_ns : 0.0;
      worst = std::max(worst, ratio);
      const bool regressed = fail_above > 1.0 && ratio > fail_above;
      regressions += regressed ? 1 : 0;
      char ratio_text[32];
      std::snprintf(ratio_text, sizeof(ratio_text), "%.2fx%s", ratio,
                    regressed ? (markdown ? " **!**" : " !") : "");
      table.add_row({name, format_ns(base_ns), format_ns(it->second),
                     format_delta(ratio), ratio_text});
    }
    for (const auto& [name, cur_ns] : current) {
      if (baseline.find(name) == baseline.end()) {
        table.add_row({name, "(new)", format_ns(cur_ns), "-", "-"});
      }
    }
    if (markdown) {
      std::fputs(table.to_markdown().c_str(), stdout);
      std::printf("\n**worst ratio %.2fx**", worst);
    } else {
      table.print();
      std::printf("worst ratio %.2fx", worst);
    }
    if (fail_above > 1.0) {
      std::printf(" (threshold %.2fx, %d regression(s))", fail_above,
                  regressions);
    }
    std::printf("\n");
    return regressions > 0 ? 1 : 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
