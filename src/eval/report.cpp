#include "eval/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/error.h"
#include "common/table.h"
#include "common/units.h"

namespace wavepim::eval {

namespace {

using Members = std::vector<std::pair<std::string, json::Value>>;

std::string format_rel(double rel) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", rel);
  return buf;
}

const json::Value* require_cells(const json::Value& report,
                                 const char* which) {
  const json::Value* cells = report.find("cells");
  WAVEPIM_REQUIRE(cells != nullptr && cells->is_array(),
                  std::string(which) + " report has no cells array");
  return cells;
}

const std::string& cell_id(const json::Value& cell, const char* which) {
  const json::Value* id = cell.find("id");
  WAVEPIM_REQUIRE(id != nullptr && id->is_string(),
                  std::string(which) + " report has a cell without an id");
  return id->as_string();
}

}  // namespace

json::Value cell_to_json(const CellResult& cell) {
  Members members;
  members.emplace_back("id", json::Value::make_string(cell.id));
  members.emplace_back("kind",
                       json::Value::make_string(to_string(cell.kind)));
  Members labels;
  for (const auto& [key, value] : cell.labels) {
    labels.emplace_back(key, json::Value::make_string(value));
  }
  members.emplace_back("labels", json::Value::make_object(std::move(labels)));
  Members metrics;
  for (const auto& [key, value] : cell.metrics) {
    metrics.emplace_back(key, json::Value::make_number(value));
  }
  members.emplace_back("metrics",
                       json::Value::make_object(std::move(metrics)));
  return json::Value::make_object(std::move(members));
}

json::Value report_to_json(const MatrixResult& result) {
  Members members;
  members.emplace_back("schema", json::Value::make_string(kReportSchema));
  members.emplace_back("matrix",
                       json::Value::make_string(to_string(result.matrix)));
  std::vector<json::Value> cells;
  cells.reserve(result.cells.size());
  for (const auto& cell : result.cells) {
    cells.push_back(cell_to_json(cell));
  }
  members.emplace_back("cells", json::Value::make_array(std::move(cells)));
  std::vector<json::Value> claims;
  for (const auto& claim : result.claims) {
    Members m;
    m.emplace_back("claim", json::Value::make_string(claim.claim));
    m.emplace_back("pass", json::Value::make_bool(claim.pass));
    claims.push_back(json::Value::make_object(std::move(m)));
  }
  members.emplace_back("claims", json::Value::make_array(std::move(claims)));
  return json::Value::make_object(std::move(members));
}

std::string render_tables(const MatrixResult& result) {
  std::string out;
  if (!result.figures.grids.empty()) {
    out += "== Figure 11 — performance (normalized to " +
           result.figures.grids[0][0].platform + ") ==\n\n";
    out += fig11_table(result.figures).to_string();
    out += "\nAverage PIM speedup over the baseline:\n";
    out += fig11_summary_table(result.figures).to_string();
    out += "\n== Figure 12 — energy ==\n\n";
    out += fig12_table(result.figures).to_string();
    out += "\nAverage PIM energy savings over the baseline:\n";
    out += fig12_summary_table(result.figures).to_string();
    out += "\n";
  }

  if (!result.fig14.rows.empty()) {
    out += "== Figure 14 — H-tree vs Bus ==\n\n";
    out += fig14_table(result.fig14).to_string();
    out += "\n";
  }

  bool have_sim = false;
  TextTable sim({"Sim cell", "Total time", "Total energy", "HBM time",
                 "Net words", "Field hash"});
  for (const auto& cell : result.cells) {
    if (cell.kind != CellKind::Sim) {
      continue;
    }
    have_sim = true;
    const auto metric = [&cell](const char* name) {
      for (const auto& [key, value] : cell.metrics) {
        if (key == name) {
          return value;
        }
      }
      return 0.0;
    };
    std::string hash;
    for (const auto& [key, value] : cell.labels) {
      if (key == "field_hash") {
        hash = value;
      }
    }
    sim.add_row({cell.id, format_time(Seconds(metric("total_time_s"))),
                 format_energy(Joules(metric("total_energy_j"))),
                 format_time(Seconds(metric("hbm_time_s"))),
                 TextTable::num(metric("net_words"), 6), hash});
  }
  if (have_sim) {
    out += "== Functional-simulation conformance cells ==\n\n";
    out += sim.to_string();
    out += "\n";
  }

  if (!result.claims.empty()) {
    out += "== Shape claims ==\n\n";
    for (const auto& claim : result.claims) {
      out += std::string("  [") + (claim.pass ? "PASS" : "FAIL") + "] " +
             claim.claim + "\n";
    }
  }
  return out;
}

DiffResult diff_reports(const json::Value& baseline,
                        const json::Value& current,
                        const DiffOptions& options) {
  const json::Value* base_cells = require_cells(baseline, "baseline");
  const json::Value* cur_cells = require_cells(current, "current");

  std::map<std::string, const json::Value*> base_by_id;
  for (const auto& cell : base_cells->as_array()) {
    base_by_id[cell_id(cell, "baseline")] = &cell;
  }

  DiffResult result;
  TextTable table({"Cell", "Field", "Baseline", "Current", "Rel dev"});
  const auto flag = [&](const std::string& id, const std::string& field,
                        const std::string& base, const std::string& cur,
                        const std::string& dev) {
    table.add_row({id, field, base, cur, dev});
  };

  std::size_t matched = 0;
  for (const auto& cell : cur_cells->as_array()) {
    const std::string& id = cell_id(cell, "current");
    const auto it = base_by_id.find(id);
    if (it == base_by_id.end()) {
      ++result.added;
      continue;
    }
    ++matched;
    ++result.compared;
    const json::Value& base = *it->second;

    // Labels: exact string equality (the field hash rides here, so any
    // bit-level divergence of the functional simulator fails the gate).
    const json::Value* base_labels = base.find("labels");
    const json::Value* cur_labels = cell.find("labels");
    if (base_labels != nullptr && base_labels->is_object()) {
      for (const auto& [key, value] : base_labels->as_object()) {
        const json::Value* cur_value =
            cur_labels != nullptr ? cur_labels->find(key) : nullptr;
        if (cur_value == nullptr || !cur_value->is_string()) {
          ++result.regressions;
          flag(id, key, value.as_string(), "(missing)", "label");
        } else if (cur_value->as_string() != value.as_string()) {
          ++result.regressions;
          flag(id, key, value.as_string(), cur_value->as_string(), "label");
        }
      }
    }

    // Metrics: relative deviation against the larger magnitude.
    const json::Value* base_metrics = base.find("metrics");
    const json::Value* cur_metrics = cell.find("metrics");
    if (base_metrics == nullptr || !base_metrics->is_object()) {
      continue;
    }
    for (const auto& [key, value] : base_metrics->as_object()) {
      const json::Value* cur_value =
          cur_metrics != nullptr ? cur_metrics->find(key) : nullptr;
      if (cur_value == nullptr || !cur_value->is_number()) {
        ++result.regressions;
        flag(id, key, TextTable::num(value.as_number(), 6), "(missing)",
             "metric");
        continue;
      }
      const double b = value.as_number();
      const double c = cur_value->as_number();
      // A NaN deviation passes every comparison, so a non-finite current
      // value is a regression of its own and stays out of `worst`.
      if (!std::isfinite(c)) {
        ++result.regressions;
        flag(id, key, TextTable::num(b, 8), TextTable::num(c, 8),
             "non-finite");
        continue;
      }
      const double scale = std::max(std::abs(b), std::abs(c));
      const double rel = scale > 0.0 ? std::abs(c - b) / scale : 0.0;
      result.worst = std::max(result.worst, rel);
      if (rel > options.tolerance) {
        ++result.regressions;
        flag(id, key, TextTable::num(b, 8), TextTable::num(c, 8),
             format_rel(rel));
      }
    }
  }
  result.ignored = static_cast<int>(base_by_id.size() - matched);

  std::string text;
  if (table.num_rows() > 0) {
    text += table.to_string();
  }
  char line[192];
  std::snprintf(line, sizeof(line),
                "%d cell(s) compared, %d regression(s), %d new, "
                "%d baseline cell(s) not run; worst relative deviation "
                "%.3g (tolerance %.3g)\n",
                result.compared, result.regressions, result.added,
                result.ignored, result.worst, options.tolerance);
  text += line;
  result.table = std::move(text);
  return result;
}

json::Value merge_baseline(const json::Value* existing,
                           const json::Value& current) {
  const json::Value* cur_cells = require_cells(current, "current");
  std::map<std::string, const json::Value*> cur_by_id;
  for (const auto& cell : cur_cells->as_array()) {
    cur_by_id[cell_id(cell, "current")] = &cell;
  }

  std::vector<json::Value> merged;
  if (existing != nullptr) {
    for (const auto& cell : require_cells(*existing, "baseline")->as_array()) {
      const auto it = cur_by_id.find(cell_id(cell, "baseline"));
      if (it != cur_by_id.end()) {
        merged.push_back(*it->second);
        cur_by_id.erase(it);
      } else {
        merged.push_back(cell);
      }
    }
  }
  for (const auto& cell : cur_cells->as_array()) {
    const std::string& id = cell_id(cell, "current");
    if (cur_by_id.find(id) != cur_by_id.end()) {
      merged.push_back(cell);
    }
  }

  Members members;
  members.emplace_back("schema", json::Value::make_string(kReportSchema));
  const json::Value* matrix = current.find("matrix");
  members.emplace_back("matrix", matrix != nullptr
                                     ? *matrix
                                     : json::Value::make_string("full"));
  members.emplace_back("cells", json::Value::make_array(std::move(merged)));
  const json::Value* claims = current.find("claims");
  if (claims != nullptr && claims->is_array() &&
      !claims->as_array().empty()) {
    members.emplace_back("claims", *claims);
  } else if (existing != nullptr) {
    const json::Value* old_claims = existing->find("claims");
    members.emplace_back("claims", old_claims != nullptr
                                       ? *old_claims
                                       : json::Value::make_array({}));
  } else {
    members.emplace_back("claims", json::Value::make_array({}));
  }
  return json::Value::make_object(std::move(members));
}

}  // namespace wavepim::eval
