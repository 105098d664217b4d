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

/// One network batch of an estimate, generated transfer by transfer: a
/// batch is never stored as a transfer list. Transfer `i` is the one the
/// batch lists at position `i`: a fetch runs over its descriptors, then
/// z, y and x (x fastest), and a staging batch over elements, then
/// descriptors. A batch keeps only what generates its transfers, so two
/// batches built alike compare equal however they were asked for:
/// descriptors of the other face sign, a staging batch's window and a
/// Morton request on a window that is not a power of two are dropped.
/// A default-constructed batch is empty.
class NetBatch {
 public:
  /// Intra-element staging: each of `elements` elements moves the
  /// `intra` transfers between its own `blocks_per_element` blocks.
  [[nodiscard]] static NetBatch staging(
      std::span<const CostSink::IntraDescriptor> intra,
      std::uint64_t elements, std::uint32_t blocks_per_element);
  /// Face-neighbour fetch of the `inter` descriptors of `normal_sign`
  /// (-1 or +1) over a window of `dim` x `slices` x `dim` elements, with
  /// `dim` a power of two. `morton` places elements in Morton order when
  /// `slices` is a power of two too (Estimator::Options::morton_placement).
  [[nodiscard]] static NetBatch fetch(
      std::span<const CostSink::InterDescriptor> inter, int normal_sign,
      std::uint64_t dim, std::uint32_t slices,
      std::uint32_t blocks_per_element, bool morton);

  [[nodiscard]] std::size_t size() const { return size_; }
  /// The batch as a transfer view. It reads this object, which must
  /// outlive it.
  [[nodiscard]] pim::TransferView view() const;
  /// Largest block id of the batch + 1; 0 when the batch is empty.
  [[nodiscard]] std::uint64_t block_end() const { return block_end_; }

  bool operator==(const NetBatch&) const = default;

 private:
  struct Descriptor {
    std::uint32_t src_group;
    std::uint32_t dst_group;
    std::uint32_t words;
    std::uint32_t axis;  ///< fetch batches: the face's axis index

    bool operator==(const Descriptor&) const = default;
  };
  static pim::Transfer staging_transfer(const void* self, std::size_t i);
  static pim::Transfer fetch_transfer(const void* self, std::size_t i);
  /// Batch-local index of the element at (x, y, z).
  [[nodiscard]] std::uint64_t local_of(std::uint32_t x, std::uint32_t y,
                                       std::uint32_t z) const;
  /// Sets `size_` and `block_end_` once the descriptors are in.
  void finish(std::uint64_t elements);

  std::vector<Descriptor> descriptors_;
  int normal_sign_ = 0;  ///< 0 for staging, else the fetched face sign
  std::uint32_t dim_ = 0;
  std::uint32_t dim_bits_ = 0;  ///< log2(dim)
  std::uint32_t spb_ = 0;
  std::uint32_t spb_bits_ = 0;  ///< ceil(log2(slices_per_batch))
  std::uint32_t bpe_ = 0;
  bool morton_ = false;  ///< requested, and the window is a power of two
  std::size_t size_ = 0;
  std::uint64_t block_end_ = 0;
};

/// One batch to price: `batch` on `net`. Both must outlive the
/// `price_batches` call.
struct BatchRequest {
  const pim::Interconnect* net = nullptr;
  const NetBatch* batch = nullptr;
};

/// The schedule of each request's batch, in request order, scheduling
/// each distinct batch of the call once. A schedule is a function of the
/// batch and the fabric (topology, H-tree arity, link-statistics request,
/// link parameters), so a request that matches an earlier one of the call
/// on both is served its result. A request whose chip's `net_backend` is
/// `Cycle` is priced with link statistics.
///
/// Chip size is not part of the key: a schedule depends only on the
/// blocks its transfers touch. A result is therefore shared only between
/// chips whose `num_blocks()` (`block_limit` included) both cover the
/// batch's largest block id; any other request is priced on its own, and
/// throws as it would alone.
///
/// The distinct batches are priced on the global thread pool, largest
/// first: the pool's workers claim them in that order, one at a time, so
/// the long batches start first and the short ones fill in behind them.
/// If any request throws, the exception of the first one that threw is
/// rethrown: the one a request-by-request pass would have thrown. Results
/// and errors do not depend on the worker count, and no state outlives
/// the call.
[[nodiscard]] std::vector<pim::ScheduleResult> price_batches(
    std::span<const BatchRequest> requests);

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

  /// Per-step projection (cached after the first call): `estimate_all`
  /// on this estimator alone.
  [[nodiscard]] const StepEstimate& estimate() const;

  /// Estimates each of `estimators` that has no cached estimate yet and
  /// caches the result. All their network batches are priced in one
  /// `price_batches` call, so a batch that two of them map alike is
  /// scheduled once, and distinct batches are priced in parallel.
  static void estimate_all(std::span<const Estimator> estimators);

  /// Total projection over a run of `steps` time steps.
  [[nodiscard]] pim::OpCost run_cost(std::uint64_t steps) const;

 private:
  /// What an estimate needs besides the network schedules: the costed
  /// sinks and the five network batches.
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
