#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
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

/// Prices the network batches of Estimators, scheduling each distinct
/// batch once. A batch's transfers are a function of its Recipe, and its
/// schedule a function of those transfers and the fabric (topology,
/// H-tree arity, link-statistics request, link parameters), so a request
/// that matches an earlier one on both is served the earlier result.
/// Requests are compared in full, and only recipes and results are kept.
/// A batch is never stored as a transfer list: the schedule reads it
/// through a RecipeBatch, which generates each transfer from its index.
///
/// Chip size is not part of the key: a schedule depends only on the
/// blocks its transfers touch. A stored result is therefore served only
/// to a chip whose `num_blocks()` (`block_limit` included) covers the
/// batch's largest block id; any other request is priced afresh, and
/// throws as it would without the pricer.
///
/// Thread-safety: `price_all` prices its distinct batches on the global
/// thread pool, but a pricer's own state is not guarded. Call one
/// pricer's `price_all` from one thread at a time.
class BatchPricer {
 public:
  /// Everything a batch's transfers are generated from.
  struct Recipe {
    /// `normal_sign` 0 marks an intra-element staging batch, generated
    /// from `intra` over `elements_per_batch` elements. A sign of -1 or
    /// +1 marks a face-neighbour fetch batch, generated from the `inter`
    /// descriptors of that sign over the batch's slice window.
    int normal_sign = 0;
    std::vector<CostSink::IntraDescriptor> intra;
    std::vector<CostSink::InterDescriptor> inter;
    std::uint64_t dim = 0;  ///< elements along x and z, a power of two
    std::uint32_t slices_per_batch = 0;
    std::uint32_t blocks_per_element = 0;
    std::uint64_t elements_per_batch = 0;
    bool morton = false;  ///< Estimator::Options::morton_placement

    bool operator==(const Recipe&) const = default;
  };

  /// One batch to price: `recipe`'s batch on `net`. Both must outlive
  /// the `price_all` call.
  struct Request {
    const pim::Interconnect* net = nullptr;
    const Recipe* recipe = nullptr;
  };

  /// The schedule of each request's batch, in request order. A request
  /// whose chip's `net_backend` is `Cycle` is priced with link statistics.
  ///
  /// Requests are matched against the stored entries and against each
  /// other first. The distinct batches left are priced on the global
  /// thread pool, largest first: the pool's workers claim them in that
  /// order, one at a time, so the long batches start first and the short
  /// ones fill in behind them. They are stored in request order, so the
  /// results and the pricer's state do not depend on the worker count.
  /// If any request throws, the entries of the requests before the first
  /// one that threw are stored, and that request's exception is
  /// rethrown: the one a request-by-request pass would have thrown.
  [[nodiscard]] std::vector<pim::ScheduleResult> price_all(
      std::span<const Request> requests);

 private:
  struct Fabric {
    pim::Topology topology;
    std::uint32_t htree_arity;
    bool link_stats;
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

/// A Recipe's batch, generated transfer by transfer. Transfer `i` is the
/// one the batch lists at position `i`: fetch batches run over their
/// descriptors of the recipe's sign, then z, y and x (x fastest), and
/// staging batches over elements, then descriptors. A RecipeBatch copies
/// what it needs, so it does not refer to the recipe.
class RecipeBatch {
 public:
  explicit RecipeBatch(const BatchPricer::Recipe& recipe);

  [[nodiscard]] std::size_t size() const { return size_; }
  /// The batch as a transfer view. It reads this object, which must
  /// outlive it.
  [[nodiscard]] pim::TransferView view() const;
  /// Largest block id of the batch + 1; 0 when the batch is empty.
  [[nodiscard]] std::uint64_t block_end() const { return block_end_; }

 private:
  struct Descriptor {
    std::uint32_t src_group;
    std::uint32_t dst_group;
    std::uint32_t words;
    std::uint32_t axis;  ///< fetch batches: the face's axis index
  };
  static pim::Transfer staging_transfer(const void* self, std::size_t i);
  static pim::Transfer fetch_transfer(const void* self, std::size_t i);
  /// Batch-local index of the element at (x, y, z).
  [[nodiscard]] std::uint64_t local_of(std::uint32_t x, std::uint32_t y,
                                       std::uint32_t z) const;

  std::vector<Descriptor> descriptors_;
  bool fetch_ = false;
  int normal_sign_ = 0;
  std::uint32_t dim_ = 0;
  std::uint32_t dim_bits_ = 0;  ///< log2(dim)
  std::uint32_t spb_ = 0;
  std::uint32_t spb_bits_ = 0;  ///< ceil(log2(slices_per_batch))
  std::uint32_t bpe_ = 0;
  bool morton_ = false;  ///< requested, and the window is a power of two
  std::size_t size_ = 0;
  std::uint64_t block_end_ = 0;
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
    /// Override the Table 5 choice (nullopt = choose automatically).
    std::optional<ExpansionMode> force_expansion;
    /// Place elements in Morton (Z-curve) order instead of row-major:
    /// all three axis-neighbours stay close in block id, trading the
    /// row-major layout's cheap X-traffic for cheaper Z-traffic. Only
    /// effective when the batch window is a power of two.
    bool morton_placement = false;
  };

  Estimator(Problem problem, pim::ChipConfig chip, Options options);
  Estimator(Problem problem, pim::ChipConfig chip)
      : Estimator(std::move(problem), std::move(chip), Options{}) {}

  [[nodiscard]] const Problem& problem() const { return problem_; }
  [[nodiscard]] const pim::ChipConfig& chip() const { return chip_; }
  [[nodiscard]] const MappingConfig& config() const { return config_; }

  /// Per-step projection (cached after the first call). Prices the
  /// network batches with a private BatchPricer.
  [[nodiscard]] const StepEstimate& estimate() const;

  /// Estimates each of `estimators` that has no cached estimate yet and
  /// caches the result. All their network batches are priced in one
  /// `pricer.price_all` call, so a batch that two of them map alike is
  /// scheduled once, and distinct batches are priced in parallel.
  static void estimate_all(std::span<const Estimator> estimators,
                           BatchPricer& pricer);

  /// Total projection over a run of `steps` time steps.
  [[nodiscard]] pim::OpCost run_cost(std::uint64_t steps) const;

 private:
  /// What an estimate needs besides the network schedules: the costed
  /// sinks and the recipes of the five network batches.
  struct Plan;
  static constexpr std::size_t kBatches = 5;

  /// Costs the representative element's kernels and describes the
  /// network batches they imply.
  [[nodiscard]] std::unique_ptr<Plan> plan() const;
  /// The projection from a plan and the schedules of its batches.
  [[nodiscard]] StepEstimate finish(
      const Plan& plan,
      std::span<const pim::ScheduleResult, kBatches> schedules) const;

  Problem problem_;
  pim::ChipConfig chip_;
  Options options_;
  MappingConfig config_;
  mutable std::optional<StepEstimate> cached_;
};

}  // namespace wavepim::mapping
