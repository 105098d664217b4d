#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mapping/config.h"
#include "mapping/pipeline.h"
#include "mapping/sinks.h"
#include "pim/chip.h"
#include "pim/interconnect.h"

namespace wavepim::mapping {

/// Complete per-time-step projection of a problem on a Wave-PIM chip.
struct StepEstimate {
  MappingConfig config;

  /// One RK stage of one batch.
  StageSegments segments;
  PipelineSchedule stage_schedule;         ///< pipelined (Fig. 13)
  PipelineSchedule stage_schedule_serial;  ///< no pipelining

  /// Whole time step: 5 RK stages x batches, plus off-chip staging.
  Seconds step_time;
  Seconds step_time_unpipelined;
  Seconds hbm_time_per_step;

  /// The paper's own §7.1 methodology: FLOPs divided by the chip's peak
  /// throughput scaled by the active-lane fraction (plus batching
  /// traffic). More optimistic than the detailed instruction-stream
  /// model; both series are reported by the benches.
  Seconds step_time_peak_method;

  /// Energy per time step (chip static + block dynamic + network + host +
  /// HBM).
  Joules step_energy;
  Joules dynamic_energy;
  Joules static_energy;
  Joules network_energy;
  Joules host_energy;
  Joules hbm_energy;

  Bytes hbm_bytes_per_step = 0;

  /// Fig. 14 decomposition of the flux work per stage.
  Seconds flux_intra_element;  ///< star-state compute + in-element staging
  Seconds flux_inter_element;  ///< neighbour-data transfer makespan

  [[nodiscard]] double pipeline_speedup() const {
    return step_time_unpipelined / step_time;
  }
};

/// Prices the network batches of Estimators, expanding and scheduling
/// each distinct batch once. A batch's transfer list is a function of its
/// Recipe, and its schedule a function of that list and the fabric
/// (topology, H-tree arity, backend, link parameters), so a request that
/// matches an earlier one on both is served the earlier result. Requests
/// are compared in full, and only recipes and results are kept, never a
/// transfer list.
///
/// Chip size is not part of the key: a schedule depends only on the
/// blocks its transfers touch. A stored result is therefore served only
/// to a chip whose `num_blocks()` (`block_limit` included) covers the
/// batch's largest block id; any other request is priced afresh, and
/// throws as it would without the pricer.
///
/// Not thread-safe: share a pricer only among Estimators that are
/// estimated on one thread.
class BatchPricer {
 public:
  /// Everything a batch's transfer list is expanded from.
  struct Recipe {
    /// `normal_sign` 0 marks an intra-element staging batch, expanded
    /// from `intra` over `elements_per_batch` elements. A sign of -1 or
    /// +1 marks a face-neighbour fetch batch, expanded from the `inter`
    /// descriptors of that sign over the batch's slice window.
    int normal_sign = 0;
    std::vector<CostSink::IntraDescriptor> intra;
    std::vector<CostSink::InterDescriptor> inter;
    std::uint64_t dim = 0;  ///< elements along x and z
    std::uint32_t slices_per_batch = 0;
    std::uint32_t blocks_per_element = 0;
    std::uint64_t elements_per_batch = 0;
    bool morton = false;  ///< Estimator::Options::morton_placement

    bool operator==(const Recipe&) const = default;
  };

  /// The schedule of `recipe`'s batch on `net`.
  [[nodiscard]] pim::ScheduleResult price(const pim::Interconnect& net,
                                          const Recipe& recipe);

 private:
  struct Fabric {
    pim::Topology topology;
    std::uint32_t htree_arity;
    pim::NetBackendKind backend;
    pim::LinkParams link;

    bool operator==(const Fabric&) const = default;
  };
  struct Entry {
    Recipe recipe;
    Fabric fabric;
    std::uint64_t block_end;  ///< largest block id + 1; 0 when empty
    pim::ScheduleResult result;
  };
  std::vector<Entry> entries_;
};

/// Maps a wave-simulation problem onto a PIM chip configuration and
/// projects per-step time and energy, reproducing the paper's methodology:
/// Table 5 config selection, per-block instruction-stream timing,
/// interconnect contention scheduling, batching traffic and §6.3
/// pipelining.
class Estimator {
 public:
  struct Options {
    bool pipelined = true;
    /// Host sqrt/inverse throughput (vectorised, LUT-reusing rate).
    double host_special_ops_per_s = 1.0e10;
    /// Override the Table 5 choice (nullopt = choose automatically).
    std::optional<ExpansionMode> force_expansion;
    /// Place elements in Morton (Z-curve) order instead of row-major:
    /// all three axis-neighbours stay close in block id, trading the
    /// row-major layout's cheap X-traffic for cheaper Z-traffic. Only
    /// effective when the batch window is a power of two.
    bool morton_placement = false;
  };

  /// Prices the network batches with a private BatchPricer.
  Estimator(Problem problem, pim::ChipConfig chip, Options options);
  Estimator(Problem problem, pim::ChipConfig chip)
      : Estimator(std::move(problem), std::move(chip), Options{}) {}
  /// Prices the network batches with `pricer`, which must outlive the
  /// first estimate() call.
  Estimator(Problem problem, pim::ChipConfig chip, Options options,
            BatchPricer& pricer);

  [[nodiscard]] const Problem& problem() const { return problem_; }
  [[nodiscard]] const pim::ChipConfig& chip() const { return chip_; }
  [[nodiscard]] const MappingConfig& config() const { return config_; }

  /// Per-step projection (cached after the first call).
  [[nodiscard]] const StepEstimate& estimate() const;

  /// Total projection over a run of `steps` time steps.
  [[nodiscard]] pim::OpCost run_cost(std::uint64_t steps) const;

 private:
  StepEstimate compute() const;

  Problem problem_;
  pim::ChipConfig chip_;
  Options options_;
  MappingConfig config_;
  BatchPricer* pricer_ = nullptr;  ///< null: a private one per compute()
  mutable std::optional<StepEstimate> cached_;
};

}  // namespace wavepim::mapping
