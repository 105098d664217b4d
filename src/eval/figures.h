#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/wavepim.h"
#include "mapping/config.h"

namespace wavepim::eval {

/// One qualitative claim the paper's evaluation makes (a Fig. 11/12
/// trend), evaluated against the model. The figure benches and the
/// paper_eval driver consume the same claim list, so a bench PASS and a
/// matrix-report PASS agree by construction.
struct ShapeClaim {
  std::string claim;
  bool pass = false;
};

/// The comparison grids behind Figs. 11/12: one compare_all() result per
/// benchmark, platform order identical in each.
struct FigureData {
  std::vector<mapping::Problem> problems;
  std::vector<std::vector<core::ComparisonRow>> grids;
};

/// Runs the platform sweep for `problems` over `steps` time steps.
[[nodiscard]] FigureData compute_figure_data(
    std::span<const mapping::Problem> problems, std::uint64_t steps = 1024);

/// Fig. 11 main table: normalised execution time (baseline = 1.0), one
/// row per platform, one column per benchmark.
[[nodiscard]] TextTable fig11_table(const FigureData& data);

/// Fig. 12 main table: normalised energy.
[[nodiscard]] TextTable fig12_table(const FigureData& data);

/// Average PIM speedup per capacity, detailed model next to the paper's
/// §7.1 peak-throughput methodology (the Fig. 11 headline numbers).
[[nodiscard]] TextTable fig11_summary_table(const FigureData& data);

/// Average PIM energy saving per capacity (the Fig. 12 headline).
[[nodiscard]] TextTable fig12_summary_table(const FigureData& data);

/// The Fig. 11 shape claims (capacity ordering, PIM-vs-GPU wins, the
/// §7.3 Elastic-Riemann deficit). Claims whose benchmarks are absent
/// from `data` are skipped, so a reduced sweep evaluates what it can.
[[nodiscard]] std::vector<ShapeClaim> fig11_claims(const FigureData& data);

/// The Fig. 12 shape claims (energy savings incl. the §7.4 non-monotone
/// right-sizing pattern).
[[nodiscard]] std::vector<ShapeClaim> fig12_claims(const FigureData& data);

/// One topology row of the Fig. 14 comparison (H-tree and Bus per paper
/// case, flux time split into its intra/inter-element parts).
struct Fig14Row {
  std::string label;  ///< paper case, e.g. "Acoustic_4 / 512MB (N)"
  pim::Topology topology = pim::Topology::HTree;
  Seconds flux_intra;  ///< star-state compute + in-element staging
  Seconds flux_inter;  ///< neighbour-data transfer makespan
  Seconds step_time;
  double inter_share = 0.0;  ///< percent of flux execution
};

/// The Fig. 14 grid under one interconnect timing backend.
struct Fig14Data {
  pim::NetBackendKind backend = pim::NetBackendKind::Analytic;
  /// Case-major, H-tree row before Bus row.
  std::vector<Fig14Row> rows;
};

/// Runs the paper's four Fig. 14 cases (Acoustic_4 on 512MB/2GB,
/// Elastic-Central_4 on 2GB/8GB — the no-expansion and expansion pairs)
/// through the estimator on each topology under the given backend. The
/// H-tree-over-bus result is *derived* from path contention in the
/// network schedule rather than assumed; the rows are the same under
/// both backend kinds.
[[nodiscard]] Fig14Data compute_fig14_data(pim::NetBackendKind backend);

/// Fig. 14 main table: one row per (case, topology).
[[nodiscard]] TextTable fig14_table(const Fig14Data& data);

/// The Fig. 14 shape claims: Bus slower on every case, the paper's
/// headline H-tree >= 2x over Bus on flux execution (cycle backend), and
/// expansion raising the inter-element share.
[[nodiscard]] std::vector<ShapeClaim> fig14_claims(const Fig14Data& data);

}  // namespace wavepim::eval
