// paper_eval — one-command paper-evaluation matrix driver.
//
// Enumerates a declarative scenario matrix (paper benchmark x chip
// capacity through the estimator/GPU stack, plus functional-simulation
// cells across physics x expansion x boundary x materials x residency
// window x net backend), runs every cell, prints Fig. 11/12-style
// performance and energy tables, and writes a machine-readable JSON
// report. With --baseline it diffs the run against a committed report
// (EXPERIMENTS_matrix.json) cell by cell — labels and field hashes
// exactly, metrics within a relative tolerance — and exits non-zero on
// any regression, which is the CI gate.
//
// Usage:
//   paper_eval [--matrix reduced|full] [--baseline FILE] [--fail-above=R]
//              [--update-baseline] [--out FILE] [--tables FILE]
//              [--threads N | --threads=N] [--trace=FILE] [--filter SUBSTR]
//              [--list]
//
// --fail-above=R is the maximum relative deviation per metric (default
// 1e-6 — the metrics are model outputs, not wall clock, so they are
// reproducible to FP precision). --update-baseline merges the run into
// the --baseline file instead of gating against it. --threads N (or
// --threads=N) sizes the one pool that runs both the simulator cells
// and the estimator's network pricing; results do not depend on it.
// --threads and --trace=FILE go through the tools' shared front end
// (tools/frontend.h).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "eval/matrix.h"
#include "eval/report.h"
#include "eval/runner.h"
#include "frontend.h"

using namespace wavepim;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: paper_eval [options]\n"
      "  --matrix reduced|full  scenario matrix to run (default: reduced)\n"
      "  --baseline FILE        diff the run against a committed report\n"
      "                         and exit 1 on any cell regression\n"
      "  --fail-above=R         max relative deviation per metric\n"
      "                         (default 1e-6)\n"
      "  --update-baseline      write/merge the run into the --baseline\n"
      "                         file instead of gating against it\n"
      "  --out FILE             write the JSON report\n"
      "  --tables FILE          write the ASCII tables (also printed)\n"
      "  --threads N            worker threads for the simulator and the\n"
      "                         network pricing (default: auto); also\n"
      "                         --threads=N\n"
      "  --trace=FILE           write a Chrome trace-event JSON of the run\n"
      "  --filter SUBSTR        only run scenarios whose id contains this\n"
      "  --list                 print the scenario ids and exit\n");
  return 2;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << content;
  return static_cast<bool>(out);
}

struct Args {
  eval::MatrixKind matrix = eval::MatrixKind::Reduced;
  std::string baseline;
  std::string out;
  std::string tables;
  std::string filter;
  double fail_above = 1e-6;
  bool update_baseline = false;
  bool list = false;
  frontend::SharedFlags shared;  ///< --threads[=]N, --trace=FILE
};

/// Accepts both `--flag value` and `--flag=value` spellings. A bare
/// `flag` with no argument after it sets `missing` and returns null.
const char* arg_value(int argc, char** argv, int& i, const char* flag,
                      bool& missing) {
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(argv[i], flag, len) != 0) {
    return nullptr;
  }
  if (argv[i][len] == '=') {
    return argv[i] + len + 1;
  }
  if (argv[i][len] == '\0') {
    if (i + 1 < argc) {
      return argv[++i];
    }
    missing = true;
  }
  return nullptr;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    bool missing = false;
    const auto shared = frontend::parse_flag(
        argc, argv, i, frontend::kThreads | frontend::kTrace, args.shared);
    if (shared == frontend::Parse::Bad) {
      return false;
    }
    if (shared == frontend::Parse::Consumed) {
      continue;
    }
    const auto value = [&](const char* flag) {
      return arg_value(argc, argv, i, flag, missing);
    };
    if (std::strcmp(argv[i], "--list") == 0) {
      args.list = true;
    } else if (std::strcmp(argv[i], "--update-baseline") == 0) {
      args.update_baseline = true;
    } else if (const char* v = value("--matrix")) {
      if (!eval::parse_matrix(v, args.matrix)) {
        std::fprintf(stderr, "error: unknown matrix '%s'\n", v);
        return false;
      }
    } else if (const char* v = value("--baseline")) {
      args.baseline = v;
    } else if (const char* v = value("--out")) {
      args.out = v;
    } else if (const char* v = value("--tables")) {
      args.tables = v;
    } else if (const char* v = value("--filter")) {
      args.filter = v;
    } else if (const char* v = value("--fail-above")) {
      if (!parse_finite_double(v, args.fail_above) ||
          !(args.fail_above > 0.0)) {
        std::fprintf(stderr,
                     "error: --fail-above wants a finite positive deviation\n");
        return false;
      }
    } else if (missing) {
      std::fprintf(stderr, "error: %s wants a value\n", argv[i]);
      return false;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[i]);
      return false;
    }
  }
  if (args.update_baseline && args.baseline.empty()) {
    std::fprintf(stderr, "error: --update-baseline needs --baseline FILE\n");
    return false;
  }
  return true;
}

/// Runs the selected scenarios, prints and writes the report, and gates
/// it against the baseline: 0 clean, 1 on a failed claim or regression.
int evaluate(const Args& args, const std::vector<eval::Scenario>& scenarios) {
  eval::RunOptions options;
  options.progress = [](const eval::Scenario& s) {
    std::printf("  running %s\n", s.id().c_str());
    std::fflush(stdout);
  };
  std::printf("paper_eval: %s matrix, %zu scenario(s)\n",
              eval::to_string(args.matrix), scenarios.size());
  const eval::MatrixResult result =
      eval::run_matrix(args.matrix, scenarios, options);

  const std::string tables = eval::render_tables(result);
  std::printf("\n%s", tables.c_str());
  if (!args.tables.empty() && !write_file(args.tables, tables)) {
    std::fprintf(stderr, "error: could not write %s\n",
                 args.tables.c_str());
    return 1;
  }

  const json::Value report = eval::report_to_json(result);
  if (!args.out.empty() &&
      !write_file(args.out, json::dump(report, 1) + "\n")) {
    std::fprintf(stderr, "error: could not write %s\n", args.out.c_str());
    return 1;
  }

  int failures = 0;
  for (const auto& claim : result.claims) {
    if (!claim.pass) {
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "error: %d shape claim(s) FAILED\n", failures);
  }

  if (!args.baseline.empty()) {
    const auto text = read_file(args.baseline);
    if (args.update_baseline) {
      std::optional<json::Value> existing;
      if (text.has_value()) {
        existing = json::parse(*text);
      }
      const json::Value merged = eval::merge_baseline(
          existing.has_value() ? &*existing : nullptr, report);
      if (!write_file(args.baseline, json::dump(merged, 1) + "\n")) {
        std::fprintf(stderr, "error: could not write %s\n",
                     args.baseline.c_str());
        return 1;
      }
      std::printf("baseline %s updated (%zu cell(s) in file)\n",
                  args.baseline.c_str(),
                  merged.find("cells")->as_array().size());
    } else {
      if (!text.has_value()) {
        std::fprintf(stderr, "error: cannot open baseline %s\n",
                     args.baseline.c_str());
        return 1;
      }
      const json::Value baseline = json::parse(*text);
      const eval::DiffResult diff = eval::diff_reports(
          baseline, report, {.tolerance = args.fail_above});
      std::printf("\n== Baseline comparison (%s) ==\n\n%s",
                  args.baseline.c_str(), diff.table.c_str());
      if (!diff.ok()) {
        ++failures;
      }
    }
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    return usage();
  }

  std::vector<eval::Scenario> scenarios = eval::build_matrix(args.matrix);
  if (!args.filter.empty()) {
    std::vector<eval::Scenario> filtered;
    for (const auto& s : scenarios) {
      if (s.id().find(args.filter) != std::string::npos) {
        filtered.push_back(s);
      }
    }
    scenarios = std::move(filtered);
  }
  if (args.list) {
    for (const auto& s : scenarios) {
      std::printf("%s\n", s.id().c_str());
    }
    return 0;
  }
  if (scenarios.empty()) {
    std::fprintf(stderr, "error: no scenarios match '%s'\n",
                 args.filter.c_str());
    return 2;
  }

  return frontend::run(args.shared,
                       [&] { return evaluate(args, scenarios); });
}
