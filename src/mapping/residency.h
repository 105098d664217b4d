#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <vector>

#include "mapping/batch_schedule.h"
#include "mesh/structured_mesh.h"
#include "pim/chip.h"

namespace wavepim::mapping {

/// The four face-side step groups of the batch schedule. Element
/// programs apply faces group by group — Y-, then both X faces, then
/// both Z faces, then Y+ — which is the per-element face order the
/// Fig. 7 schedule fixes for *every* window size (so batched and
/// fully-resident runs fold flux contributions in the same order).
enum class FaceGroup : std::uint8_t { YMinus = 0, X = 1, Z = 2, YPlus = 3 };

inline constexpr std::uint32_t kNumFaceGroups = 4;

/// Faces of a group, in canonical application order.
[[nodiscard]] std::span<const mesh::Face> faces_of(FaceGroup g);

/// The face group a compute step drives. Load/Store steps have none.
[[nodiscard]] FaceGroup group_of(BatchStep::Kind kind);

/// True if this element's Y- face is deferred to the schedule's wrap
/// step: the periodic mesh pairs slice 0 with slice N-1 *after* every
/// other face, so slice-0 elements apply Y- last instead of first.
[[nodiscard]] bool y_minus_deferred(const mesh::StructuredMesh& mesh,
                                    mesh::ElementId e);

/// Per-element group application order implied by the schedule:
/// YMinus, X, Z, YPlus — rotated to X, Z, YPlus, YMinus for the
/// deferred-Y- elements. Transfer lists merged in this order match the
/// emission order of any window size.
[[nodiscard]] std::array<FaceGroup, 4> canonical_group_order(bool deferred);

/// Aggregate staging traffic of one pass over a schedule. Zero for a
/// single-window (fully resident) schedule: staging only happens when
/// the window is smaller than the mesh. This is the one place loads and
/// stores are counted — the estimator and the executed simulation both
/// derive their HBM numbers from it.
struct StagingCounts {
  std::uint64_t slice_loads = 0;
  std::uint64_t slice_stores = 0;
  Bytes bytes = 0;
};

[[nodiscard]] StagingCounts count_staging(const BatchSchedule& schedule,
                                          Bytes slice_bytes);

/// Maps virtual element blocks to physical chip blocks.
///
/// Element programs address blocks by *virtual* id — element-major,
/// group-minor, exactly the resident Placement numbering — and resolve
/// them through this table at execution time. When the problem fits on
/// chip, every virtual block is pinned to the physical block of the
/// same id and the table never changes. When it does not fit, a window
/// of W+1 slice-sized slots (W = capacity in slices minus the Fig. 7
/// staging slot) is cycled through the BatchSchedule's Load/Store
/// steps: loading a slice binds its virtual blocks to a free slot and
/// copies the slice's state in from a host-side backing store; storing
/// copies it back out and frees the slot. Every slice load/store is
/// charged to the HbmModel at the slice's off-chip state footprint.
///
/// The functional copies are bit-exact moves of the node rows of every
/// column, and programs only ever touch those rows, so a reloaded slice
/// is indistinguishable from one that stayed resident — the root of the
/// batched-vs-resident bit-identity guarantee.
class ResidencyManager {
 public:
  /// `rows` is the per-block row count programs touch (nodes per
  /// element); `element_bytes` the off-chip footprint of one element's
  /// state used to price staging.
  ResidencyManager(pim::Chip& chip, const mesh::StructuredMesh& mesh,
                   std::uint32_t blocks_per_element, std::uint32_t rows,
                   Bytes element_bytes);

  [[nodiscard]] bool is_resident() const { return resident_; }
  /// Window size in slices (num_slices when fully resident).
  [[nodiscard]] std::uint32_t window() const { return window_; }
  [[nodiscard]] std::uint32_t num_slices() const { return num_slices_; }
  [[nodiscard]] Bytes slice_bytes() const { return slice_bytes_; }

  /// The per-stage flux schedule (a single window when resident).
  [[nodiscard]] const BatchSchedule& schedule() const { return schedule_; }

  /// Virtual-to-physical block table for BlockResolver: entry v is the
  /// physical block backing virtual block v (null while not resident).
  [[nodiscard]] pim::Block* const* table() const { return table_.data(); }

  /// Elements ordered slice-major (all of slice 0, then slice 1, ...);
  /// the range of slice s is [s*elements_per_slice, (s+1)*...).
  [[nodiscard]] const std::vector<mesh::ElementId>& elements_in_slice_order()
      const {
    return slice_order_;
  }
  [[nodiscard]] std::uint32_t elements_per_slice() const {
    return elements_per_slice_;
  }

  /// Executes a Load/Store schedule step: binds slots and moves state
  /// between blocks and the backing store, charging HBM staging. No-ops
  /// when fully resident (the state never leaves the chip mid-stage).
  void load_slices(std::uint32_t first, std::uint32_t last);
  void store_slices(std::uint32_t first, std::uint32_t last);

  /// Host-side backing store of one virtual block's column (batched
  /// mode): state load/readback write through these instead of blocks.
  [[nodiscard]] std::span<float> backing_column(std::uint32_t vblock,
                                                std::uint32_t col);

  // --- Staging accounting -------------------------------------------------

  [[nodiscard]] std::uint64_t slice_loads() const { return slice_loads_; }
  [[nodiscard]] std::uint64_t slice_stores() const { return slice_stores_; }
  [[nodiscard]] Bytes bytes_staged() const { return bytes_staged_; }
  /// Accumulated staging cost since the last drain.
  [[nodiscard]] pim::OpCost drain_hbm_cost() {
    const pim::OpCost cost = hbm_cost_;
    hbm_cost_ = {};
    return cost;
  }

 private:
  void bind_slice(std::uint32_t slice, std::uint32_t slot);

  pim::Chip& chip_;
  std::uint32_t bpe_;
  std::uint32_t rows_;
  std::uint32_t num_slices_;
  std::uint32_t elements_per_slice_;
  Bytes slice_bytes_;
  bool resident_ = false;
  std::uint32_t window_ = 0;
  BatchSchedule schedule_;

  std::vector<pim::Block*> table_;          ///< virtual block -> physical
  std::vector<mesh::ElementId> slice_order_;
  std::vector<std::uint32_t> slot_of_slice_;
  std::vector<std::uint32_t> free_slots_;
  struct Free {
    void operator()(float* p) const { std::free(p); }
  };
  /// Batched: rows_ floats per (vblock, col), one calloc'd buffer, so a
  /// huge over-capacity mesh commits only the zero pages a run writes.
  std::unique_ptr<float[], Free> backing_;

  std::uint64_t slice_loads_ = 0;
  std::uint64_t slice_stores_ = 0;
  Bytes bytes_staged_ = 0;
  pim::OpCost hbm_cost_{};
};

}  // namespace wavepim::mapping
