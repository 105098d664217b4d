#include "core/wavepim.h"

#include <cmath>

#include "common/error.h"
#include "common/statistics.h"
#include "trace/trace.h"

namespace wavepim::core {

namespace {

/// Prices `steps` time steps of one modelled run on a process node.
gpumodel::PlatformEstimate project(const mapping::Estimator& estimator,
                                   std::uint64_t steps,
                                   const pim::ProcessScaling& scaling) {
  const auto cost = estimator.run_cost(steps);

  gpumodel::PlatformEstimate est;
  est.platform =
      estimator.chip().name + (scaling.speedup > 1.0 ? "-12nm" : "-28nm");
  est.total_time = cost.time / scaling.speedup;
  est.step_time = est.total_time / static_cast<double>(steps);
  est.total_energy = cost.energy / scaling.energy_saving;
  const auto& problem = estimator.problem();
  const auto ops = dg::count_problem_ops(problem.kind, problem.num_elements(),
                                         problem.n1d);
  est.achieved_flops = static_cast<double>(ops.total().flops) * 5.0 *
                       static_cast<double>(steps) / est.total_time.value();
  return est;
}

ComparisonRow row_of(const gpumodel::PlatformEstimate& est) {
  ComparisonRow row;
  row.platform = est.platform;
  row.step_time = est.step_time;
  row.total_time = est.total_time;
  row.total_energy = est.total_energy;
  return row;
}

}  // namespace

gpumodel::PlatformEstimate System::project_pim(const mapping::Problem& problem,
                                               const pim::ChipConfig& chip,
                                               std::uint64_t steps,
                                               const PimOptions& options) {
  trace::Span span("system.project_pim");
  pim::ChipConfig configured = chip;
  configured.topology = options.topology;
  const mapping::Estimator estimator(problem, configured, options.estimator);
  return project(estimator, steps, options.scaling);
}

std::vector<ComparisonRow> System::compare_all(const mapping::Problem& problem,
                                               std::uint64_t steps,
                                               pim::Topology topology) {
  trace::Span span("system.compare_all");
  std::vector<ComparisonRow> rows;

  for (const auto impl : {gpumodel::GpuImplementation::Unfused,
                          gpumodel::GpuImplementation::Fused}) {
    for (const auto& gpu : gpumodel::paper_gpus()) {
      rows.push_back(
          row_of(gpumodel::estimate_gpu(problem, gpu, impl, steps)));
    }
  }

  // One modelled run per chip; both process nodes scale the same
  // estimate, and the paper-methodology series rides along. The chips
  // are estimated together, so a network batch that two chips map alike
  // is scheduled once and the distinct ones are scheduled in parallel.
  std::vector<mapping::Estimator> estimators;
  for (const auto& chip : pim::standard_chips(topology)) {
    estimators.emplace_back(problem, chip);
  }
  mapping::BatchPricer pricer;
  mapping::Estimator::estimate_all(estimators, pricer);
  for (const auto scaling : {pim::ProcessScaling::node_28nm(),
                             pim::ProcessScaling::node_12nm()}) {
    for (const auto& estimator : estimators) {
      ComparisonRow row = row_of(project(estimator, steps, scaling));
      row.step_time_peak_method =
          estimator.estimate().step_time_peak_method / scaling.speedup;
      row.is_pim = true;
      rows.push_back(row);
    }
  }

  // Normalise to the Unfused GTX 1080Ti (row 0).
  WAVEPIM_ASSERT(!rows.empty() && rows[0].platform.find("1080Ti") !=
                                      std::string::npos,
                 "baseline row must be Unfused-1080Ti");
  const double t0 = rows[0].total_time.value();
  const double e0 = rows[0].total_energy.value();
  for (auto& row : rows) {
    row.speedup = t0 / row.total_time.value();
    row.energy_saving = e0 / row.total_energy.value();
    row.normalized_time = row.total_time.value() / t0;
    row.normalized_energy = row.total_energy.value() / e0;
  }
  return rows;
}

System::Summary System::summarize_pim(
    const std::vector<std::vector<ComparisonRow>>& grids,
    const std::string& platform_name) {
  std::vector<double> speedups;
  std::vector<double> savings;
  for (const auto& grid : grids) {
    for (const auto& row : grid) {
      if (row.platform == platform_name) {
        speedups.push_back(row.speedup);
        savings.push_back(row.energy_saving);
      }
    }
  }
  WAVEPIM_REQUIRE(!speedups.empty(), "no rows matched " + platform_name);
  return {geomean(speedups), geomean(savings)};
}

}  // namespace wavepim::core
