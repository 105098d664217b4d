#include "eval/figures.h"

#include <cstdio>
#include <iterator>
#include <map>

#include "common/statistics.h"
#include "mapping/estimator.h"

namespace wavepim::eval {

namespace {

constexpr const char* kPimConfigs[] = {"PIM-512MB-12nm", "PIM-2GB-12nm",
                                       "PIM-8GB-12nm", "PIM-16GB-12nm"};

const core::ComparisonRow* find_row(
    const std::vector<core::ComparisonRow>& grid, const std::string& name) {
  for (const auto& row : grid) {
    if (row.platform == name) {
      return &row;
    }
  }
  return nullptr;
}

int find_problem(const FigureData& data, const std::string& name) {
  for (std::size_t i = 0; i < data.problems.size(); ++i) {
    if (data.problems[i].name() == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Per-capacity geomean speedup of the detailed model and the paper's
/// peak-throughput methodology across every benchmark in the sweep.
struct PimAverages {
  std::map<std::string, double> detailed;
  std::map<std::string, double> peak;
};

PimAverages pim_speedup_averages(const FigureData& data) {
  PimAverages avg;
  for (const char* name : kPimConfigs) {
    avg.detailed[name] =
        core::System::summarize_pim(data.grids, name).mean_speedup;
    std::vector<double> peak_speedups;
    for (const auto& grid : data.grids) {
      const auto* base = find_row(grid, grid[0].platform);
      const auto* pim = find_row(grid, name);
      if (base != nullptr && pim != nullptr) {
        peak_speedups.push_back(base->step_time.value() /
                                pim->step_time_peak_method.value());
      }
    }
    avg.peak[name] = geomean(peak_speedups);
  }
  return avg;
}

TextTable grid_table(const FigureData& data, bool energy) {
  std::vector<std::string> header = {energy
                                         ? "Platform (normalized energy)"
                                         : "Platform (normalized time)"};
  for (const auto& p : data.problems) {
    header.push_back(p.name());
  }
  TextTable table(std::move(header));
  for (std::size_t r = 0; r < data.grids[0].size(); ++r) {
    std::vector<std::string> cells = {data.grids[0][r].platform};
    for (const auto& grid : data.grids) {
      cells.push_back(TextTable::num(
          energy ? grid[r].normalized_energy : grid[r].normalized_time, 3));
    }
    table.add_row(cells);
  }
  return table;
}

}  // namespace

FigureData compute_figure_data(std::span<const mapping::Problem> problems,
                               std::uint64_t steps) {
  FigureData data;
  for (const auto& problem : problems) {
    data.problems.push_back(problem);
    data.grids.push_back(core::System::compare_all(problem, steps));
  }
  return data;
}

TextTable fig11_table(const FigureData& data) {
  return grid_table(data, /*energy=*/false);
}

TextTable fig12_table(const FigureData& data) {
  return grid_table(data, /*energy=*/true);
}

TextTable fig11_summary_table(const FigureData& data) {
  const PimAverages avg = pim_speedup_averages(data);
  TextTable table({"PIM config", "Detailed model", "Peak-throughput method"});
  for (const char* name : kPimConfigs) {
    table.add_row({name, TextTable::ratio(avg.detailed.at(name)),
                   TextTable::ratio(avg.peak.at(name))});
  }
  return table;
}

TextTable fig12_summary_table(const FigureData& data) {
  TextTable table({"PIM config", "Energy saving (model)"});
  for (const char* name : kPimConfigs) {
    table.add_row(
        {name, TextTable::ratio(core::System::summarize_pim(data.grids, name)
                                    .mean_energy_saving)});
  }
  return table;
}

std::vector<ShapeClaim> fig11_claims(const FigureData& data) {
  std::vector<ShapeClaim> claims;
  const PimAverages avg = pim_speedup_averages(data);
  const auto& d = avg.detailed;
  claims.push_back(
      {"average speedup grows with PIM capacity (paper ordering)",
       d.at("PIM-512MB-12nm") < d.at("PIM-2GB-12nm") &&
           d.at("PIM-2GB-12nm") < d.at("PIM-8GB-12nm") &&
           d.at("PIM-8GB-12nm") < d.at("PIM-16GB-12nm")});
  claims.push_back({"PIM-2GB beats the unfused GTX 1080Ti on average",
                    d.at("PIM-2GB-12nm") > 1.0});
  claims.push_back({"PIM-16GB wins by a large factor on average",
                    d.at("PIM-16GB-12nm") > 5.0});

  for (std::size_t b = 0; b < data.problems.size(); ++b) {
    const auto* fused_v100 = find_row(data.grids[b], "Fused-Tesla V100");
    const auto* pim16 = find_row(data.grids[b], "PIM-16GB-12nm");
    if (fused_v100 != nullptr && pim16 != nullptr) {
      claims.push_back({data.problems[b].name() +
                            ": PIM-16GB-12nm beats even the fused V100",
                        pim16->total_time < fused_v100->total_time});
    }
  }

  // "The speedup of Elastic-Riemann on PIM is below the average" (§7.3).
  const int riemann = find_problem(data, "Elastic-Riemann_4");
  const int acoustic = find_problem(data, "Acoustic_4");
  if (riemann >= 0 && acoustic >= 0) {
    const auto* r = find_row(data.grids[riemann], "PIM-2GB-12nm");
    const auto* a = find_row(data.grids[acoustic], "PIM-2GB-12nm");
    claims.push_back({"Elastic-Riemann gains less than Acoustic on PIM "
                      "(compute-intense, §7.3)",
                      r != nullptr && a != nullptr &&
                          r->speedup < a->speedup});
  }
  return claims;
}

std::vector<ShapeClaim> fig12_claims(const FigureData& data) {
  std::vector<ShapeClaim> claims;
  claims.push_back(
      {"PIM-2GB saves energy vs the unfused GTX 1080Ti",
       core::System::summarize_pim(data.grids, "PIM-2GB-12nm")
               .mean_energy_saving > 1.0});

  // §7.4: small problems on big chips waste static power, so the biggest
  // chips do NOT have the biggest savings.
  const int acoustic = find_problem(data, "Acoustic_4");
  if (acoustic >= 0) {
    const auto* small = find_row(data.grids[acoustic], "PIM-512MB-12nm");
    const auto* big = find_row(data.grids[acoustic], "PIM-16GB-12nm");
    claims.push_back(
        {"Acoustic_4 saves more energy on the right-sized 512MB chip "
         "than on 16GB (§7.4 trade-off)",
         small != nullptr && big != nullptr &&
             small->energy_saving > big->energy_saving});
  }

  double best = 0.0;
  for (const auto& grid : data.grids) {
    for (const auto& row : grid) {
      if (row.is_pim) {
        best = std::max(best, row.energy_saving);
      }
    }
  }
  claims.push_back({"peak energy saving exceeds 10x", best > 10.0});
  return claims;
}

Fig14Data compute_fig14_data(pim::NetBackendKind net_backend) {
  struct Case {
    mapping::Problem problem;
    pim::ChipConfig (*chip)(pim::Topology);
    const char* label;
  };
  // The paper's four cases: the no-expansion pair (Acoustic_4/512MB,
  // Elastic-Central_4/2GB) and the expansion pair (Acoustic_4/2GB,
  // Elastic-Central_4/8GB) where the Fig. 14 inter-element share jumps.
  const Case cases[] = {
      {{dg::ProblemKind::Acoustic, 4, 8}, pim::chip_512mb,
       "Acoustic_4 / 512MB (N)"},
      {{dg::ProblemKind::Acoustic, 4, 8}, pim::chip_2gb,
       "Acoustic_4 / 2GB (Ep)"},
      {{dg::ProblemKind::ElasticCentral, 4, 8}, pim::chip_2gb,
       "Elastic-Central_4 / 2GB (Er)"},
      {{dg::ProblemKind::ElasticCentral, 4, 8}, pim::chip_8gb,
       "Elastic-Central_4 / 8GB (Er&Ep)"},
  };
  // One estimator per row, in row order, all priced in one call.
  constexpr pim::Topology kTopologies[] = {pim::Topology::HTree,
                                           pim::Topology::Bus};
  std::vector<mapping::Estimator> estimators;
  for (const auto& c : cases) {
    for (const auto topo : kTopologies) {
      pim::ChipConfig chip = c.chip(topo);
      chip.net_backend = net_backend;
      estimators.emplace_back(c.problem, chip);
    }
  }
  mapping::Estimator::estimate_all(estimators);
  Fig14Data data;
  for (std::size_t i = 0; i < estimators.size(); ++i) {
    const auto& est = estimators[i].estimate();
    Fig14Row row;
    row.label = cases[i / std::size(kTopologies)].label;
    row.topology = estimators[i].chip().topology;
    row.flux_intra = est.flux_intra_element;
    row.flux_inter = est.flux_inter_element;
    row.step_time = est.step_time;
    const double flux =
        (est.flux_intra_element + est.flux_inter_element).value();
    row.inter_share =
        flux > 0.0 ? 100.0 * est.flux_inter_element.value() / flux : 0.0;
    data.rows.push_back(std::move(row));
  }
  return data;
}

TextTable fig14_table(const Fig14Data& data) {
  TextTable table({"Case", "Topology", "Intra-element (us)",
                   "Inter-element (us)", "Inter share", "Step time (us)"});
  for (const auto& row : data.rows) {
    table.add_row({row.label, pim::to_string(row.topology),
                   TextTable::num(row.flux_intra.value() * 1e6, 4),
                   TextTable::num(row.flux_inter.value() * 1e6, 4),
                   TextTable::num(row.inter_share, 3) + "%",
                   TextTable::num(row.step_time.value() * 1e6, 4)});
  }
  return table;
}

std::vector<ShapeClaim> fig14_claims(const Fig14Data& data) {
  std::vector<ShapeClaim> claims;
  if (data.rows.size() < 2 || data.rows.size() % 2 != 0) {
    return claims;
  }
  bool every_case = true;
  double ratio_sum = 0.0;
  for (std::size_t i = 0; i + 1 < data.rows.size(); i += 2) {
    const double htree =
        (data.rows[i].flux_intra + data.rows[i].flux_inter).value();
    const double bus =
        (data.rows[i + 1].flux_intra + data.rows[i + 1].flux_inter).value();
    every_case = every_case && bus > htree;
    ratio_sum += htree > 0.0 ? bus / htree : 0.0;
  }
  const double mean_ratio =
      ratio_sum / (static_cast<double>(data.rows.size()) / 2.0);
  claims.push_back(
      {"Bus flux execution slower than H-tree on every Fig. 14 case",
       every_case});
  char headline[160];
  std::snprintf(headline, sizeof(headline),
                "H-tree >= 2x over Bus on Fig. 14 flux execution "
                "(mean %.2fx; paper: ~2.16x)",
                mean_ratio);
  claims.push_back({headline, mean_ratio >= 2.0});
  if (data.rows.size() >= 4) {
    // The H-tree rows of the (N) and (Ep) acoustic cases: expansion
    // shifts flux work toward neighbour transfers.
    claims.push_back({"expansion raises the inter-element share (Fig. 14)",
                      data.rows[2].inter_share > data.rows[0].inter_share});
  }
  return claims;
}

}  // namespace wavepim::eval
