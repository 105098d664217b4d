#pragma once

#include <string>
#include <vector>

#include "gpumodel/baseline.h"
#include "mapping/estimator.h"
#include "mapping/simulation.h"
#include "pim/params.h"

namespace wavepim::core {

/// One row of a Fig. 11 / Fig. 12 style comparison.
struct ComparisonRow {
  std::string platform;
  Seconds step_time;
  Seconds total_time;
  Joules total_energy;
  /// Relative to the Unfused GTX 1080Ti baseline (the paper's reference).
  double speedup = 0.0;
  double energy_saving = 0.0;
  /// Normalised time/energy (baseline = 1.0), the units Fig. 11/12 plot.
  double normalized_time = 0.0;
  double normalized_energy = 0.0;
  /// For PIM rows: the paper's peak-throughput methodology estimate.
  Seconds step_time_peak_method;
  bool is_pim = false;
};

/// The Wave-PIM system facade: projects wave-simulation benchmarks onto
/// PIM chips and the GPU/CPU baselines, producing the comparisons the
/// paper's evaluation section reports.
class System {
 public:
  /// Full evaluation grid for one benchmark: 3 GPUs x {unfused, fused}
  /// plus 4 PIM capacities x {28 nm, 12 nm}, normalised to
  /// Unfused-1080Ti (the paper's Figs. 11-12 layout).
  static std::vector<ComparisonRow> compare_all(
      const mapping::Problem& problem, std::uint64_t steps,
      pim::Topology topology = pim::Topology::HTree);

  /// Geometric-mean speedup/energy-saving of the PIM rows of
  /// `compare_all` grids across several problems (the paper's "average
  /// of 41.98x speedup and 12.66x energy savings" summary).
  struct Summary {
    double mean_speedup = 0.0;
    double mean_energy_saving = 0.0;
  };
  static Summary summarize_pim(const std::vector<std::vector<ComparisonRow>>&
                                   grids,
                               const std::string& platform_name);
};

}  // namespace wavepim::core
