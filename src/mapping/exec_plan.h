#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "mapping/program_cache.h"
#include "mapping/residency.h"
#include "mapping/sinks.h"
#include "mesh/structured_mesh.h"
#include "pim/chip.h"

namespace wavepim::mapping {

/// Compiled execution engine — the first of the mapping layer's two
/// lower-once/execute-many tiers (compiled plan -> word kernels). Its
/// reference is the test-side functional oracle, which re-lowers every
/// element each phase and executes it call by call
/// (tests/mapping/functional_oracle_test.cpp).
///
/// The shape-class cache removes per-stage re-lowering, but replaying
/// its streams element by element would still decode every cached
/// instruction per element per stage, dispatch through the virtual
/// ProgramSink interface, and let `pim::Block` price every operation
/// individually. The plan removes all three costs:
///
///  * each class's relocatable streams are decoded exactly once into
///    flat `Op` arrays with resolved row-span/constant pointers into the
///    program arena, executed by a tight non-virtual switch loop
///    directly over the blocks' contiguous column storage;
///  * per-element state — the neighbour block base of every exchange
///    face and the element-order merged transfer descriptor list of each
///    phase — is resolved once at plan construction, so a step issues no
///    mesh lookups and no transfer-list concatenation at all;
///  * ledger arithmetic is batched: while compiling a stream the builder
///    left-folds, in exact charge order, the same per-op costs the
///    functional sink would charge, yielding one `OpCost` aggregate per
///    element block per phase that is applied with a single `charge()`.
///
/// Cost-accounting invariant (why batching stays bit-identical): every
/// block ledger is exactly zero at the start of a schedule step (the
/// executor folds and clears it at each step boundary), so the
/// sequential per-op accumulation `0 + c1 + ... + cn` equals the
/// pre-folded `0 + (c1 + ... + cn)` bit-for-bit as long as the fold
/// applies the identical values in the identical order — which the
/// builder guarantees by replaying the stream through the shared cost
/// formulas (`SinkPricing`, `pim::Block::gather_cost/scatter_cost`,
/// `ArithModel::op_cost`). Flux streams are compiled per *face group*
/// (the schedule's step granularity: {Y-}, {X-,X+}, {Z-,Z+}, {Y+}), so
/// each aggregate spans exactly the charges of one compute step.
/// Deferred neighbour-side flux charges arrive *after* the step folds,
/// so they are NOT folded in: the plan keeps them as per-face charge
/// lists applied individually (to the caller's per-virtual-block
/// accumulators) in the settlement order of the pairing schedule.
///
/// Blocks are addressed by *virtual* id and resolved through a
/// `BlockResolver`, so the same plan executes whether the problem is
/// fully resident or cycled through a residency window.
///
/// Thread safety: the run_* methods are const and touch only the bound
/// element's blocks (flux additionally reads neighbour variable columns,
/// which no element writes during the phase). `integration()` lowers
/// lazily and must be called before fanning out.
class ExecutionPlan {
 public:
  /// One resolved operation of a compiled stream. Row lists and constant
  /// vectors point into the program arena's interned side tables (stable
  /// for the cache's lifetime); blocks are identified by element-local
  /// group, bound to absolute ids by a single add at execution.
  struct Op {
    enum class Kind : std::uint8_t {
      Scatter,     ///< values[i] -> (rows_a[i], col_dst)
      Gather,      ///< (rows_a[i], col_a) -> (i, col_dst)
      Arith,       ///< rows [0, count) of col_dst = col_a <op> col_b
      ArithRows,   ///< explicit row set variant
      Fscale,      ///< col_dst = imm * col_a over [0, count)
      FscaleRows,  ///< explicit row set variant
      Faxpy,       ///< col_dst = imm * col_dst + imm2 * col_a
      Move,        ///< rows between two blocks (intra or neighbour pull)
    };

    Kind kind = Kind::Arith;
    pim::Opcode opcode = pim::Opcode::Nop;  ///< Arith/ArithRows operator
    std::uint8_t group = 0;       ///< target block (source for Move)
    std::uint8_t peer_group = 0;  ///< Move destination block
    std::int8_t face = -1;        ///< Move source: -1 own element, else
                                  ///< mesh::index_of of the pulled face
    std::uint8_t col_a = 0;
    std::uint8_t col_b = 0;
    std::uint8_t col_dst = 0;
    std::uint32_t count = 0;      ///< rows covered / words moved
    float imm = 0.0f;
    float imm2 = 0.0f;
    const std::uint32_t* rows_a = nullptr;  ///< source/target row list
    const std::uint32_t* rows_b = nullptr;  ///< Move destination rows
    const float* values = nullptr;          ///< Scatter constants
    std::uint32_t distinct = 0;             ///< Scatter distinct values
  };

  /// Group-relative transfer descriptor of a class stream; expanded into
  /// the absolute pre-merged per-phase lists at plan construction.
  struct TransferTemplate {
    std::int8_t face = -1;  ///< -1: intra-element; else source face
    std::uint8_t src_group = 0;
    std::uint8_t dst_group = 0;
    std::uint32_t words = 0;
  };

  /// A neighbour-side read cost one inter-element pull owes (flux phase
  /// B); `cost` is the pre-priced rows_read of the pulled words.
  struct DeferredCharge {
    std::uint8_t src_group = 0;
    pim::OpCost cost;
  };

  /// One compiled stream: resolved ops, the per-group phase-fold cost
  /// aggregates (only touched groups listed), and the transfer templates
  /// in emission order.
  struct StreamPlan {
    std::vector<Op> ops;
    std::vector<std::pair<std::uint8_t, pim::OpCost>> group_cost;
    std::vector<TransferTemplate> transfers;
  };

  /// Compiles every class of `cache` and resolves the per-element
  /// binding tables. The cache (and its arena) must outlive the plan.
  /// Every op must pass check_rows at `row_extent` (Chip::row_extent).
  ExecutionPlan(const ProgramCache& cache, const mesh::StructuredMesh& mesh,
                Placement placement, SinkPricing pricing,
                std::uint32_t row_extent = pim::Block::kRows);

  /// Executes one element's Volume / flux-group / Integration stream:
  /// the data ops, then the batched per-block cost aggregates.
  void run_volume(const BlockResolver& blocks, mesh::ElementId e) const;
  void run_flux_group(const BlockResolver& blocks, mesh::ElementId e,
                      FaceGroup group) const;
  void run_integration(const BlockResolver& blocks, mesh::ElementId e,
                       const StreamPlan& stage) const;

  /// Rejects an op whose count or a listed row reaches `row_extent`; both
  /// plan builders check every op once, so execution never checks rows.
  static void check_rows(const Op& op, std::uint32_t row_extent);

  /// Executes one op's data movement for the element whose group-0
  /// block is `base` (no ledger charge). `neighbor_base` resolves the
  /// source of an inter-element Move and may be null for streams that
  /// carry none. The word tier runs shapes it has no kernel for through
  /// this, so the two tiers share one definition of every op.
  void run_op(const BlockResolver& blocks, std::uint32_t base,
              const std::array<std::uint32_t, 6>* neighbor_base,
              const Op& op) const;

  /// Applies the deferred neighbour-side read charges of element `e`'s
  /// pull across `face` into the caller's per-virtual-block cost
  /// accumulators (flux phase B; the caller iterates the disjoint
  /// pairing schedule). Each charge is the rows_read the oracle's
  /// functional sink defers for the same pull, applied in its order.
  void settle_pull(pim::OpCost* accumulators, mesh::ElementId e,
                   mesh::Face face) const;

  /// Compiled Integration stream for (stage, dt): emitted straight into
  /// the plan builder on first request and memoised (the stage is
  /// class-independent — every element runs the same stream). Not
  /// thread-safe: fetch before the parallel fan-out.
  const StreamPlan& integration(int stage, float dt);

  /// Element-order merged transfer lists of one whole phase (flux in
  /// the canonical per-element group order of the batch schedule) —
  /// identical every stage, so they are resolved once and fed straight
  /// to the interconnect scheduler. Block ids are virtual: the
  /// interconnect prices them by position, independent of residency.
  [[nodiscard]] const std::vector<pim::Transfer>& volume_transfers() const {
    return volume_transfers_;
  }
  [[nodiscard]] const std::vector<pim::Transfer>& flux_transfers() const {
    return flux_transfers_;
  }

  [[nodiscard]] std::uint32_t num_classes() const {
    return static_cast<std::uint32_t>(classes_.size());
  }
  [[nodiscard]] std::uint32_t row_extent() const { return row_extent_; }

  // --- Word-tier introspection ---------------------------------------------
  // The word-level engine (mapping/word_plan.h) re-resolves these compiled
  // streams into vectorized kernels; it reuses the per-group cost
  // aggregates and binding tables verbatim, so the two tiers cannot drift
  // in accounting or addressing. References stay valid for the plan's
  // lifetime (classes_ is fixed at construction, integration_ nodes are
  // stable).

  [[nodiscard]] const StreamPlan& volume_plan(std::uint32_t cls) const {
    return classes_[cls].volume;
  }
  [[nodiscard]] const StreamPlan& flux_plan(std::uint32_t cls,
                                            FaceGroup group) const {
    return classes_[cls].flux[static_cast<std::size_t>(group)];
  }
  [[nodiscard]] std::uint32_t class_of(mesh::ElementId e) const {
    return cache_.class_of(e);
  }
  /// Absolute block base of element `e` (its group-0 virtual id).
  [[nodiscard]] std::uint32_t block_base(mesh::ElementId e) const {
    return placement_.block_of(e, 0);
  }
  [[nodiscard]] const std::array<std::uint32_t, 6>& neighbor_bases(
      mesh::ElementId e) const {
    return neighbor_base_[e];
  }
  [[nodiscard]] std::uint32_t num_groups() const {
    return cache_.setup().num_groups();
  }
  [[nodiscard]] std::uint32_t num_elements() const {
    return static_cast<std::uint32_t>(neighbor_base_.size());
  }

 private:
  struct ClassPlan {
    StreamPlan volume;
    /// One stream per face group (a group's faces concatenated in face
    /// order) — the granularity of one schedule compute step, so each
    /// cost fold spans exactly one step's charges.
    std::array<StreamPlan, kNumFaceGroups> flux;
    /// Phase-B charge lists keyed by the pulled face, emission order.
    std::array<std::vector<DeferredCharge>, 6> deferred;
  };

  void run_stream(const BlockResolver& blocks, std::uint32_t base,
                  const std::array<std::uint32_t, 6>* neighbor_base,
                  const StreamPlan& stream) const;

  const ProgramCache& cache_;
  Placement placement_;
  SinkPricing pricing_;
  std::uint32_t row_extent_;
  std::vector<ClassPlan> classes_;
  /// Per element: absolute block base of the neighbour across each face
  /// (UINT32_MAX for boundary faces, never dereferenced — boundary-face
  /// class streams carry no pulls).
  std::vector<std::array<std::uint32_t, 6>> neighbor_base_;
  std::vector<pim::Transfer> volume_transfers_;
  std::vector<pim::Transfer> flux_transfers_;
  /// Memoised per (stage, dt-bits); std::map nodes are stable, so the
  /// references handed out stay valid while new stages are added.
  std::map<std::pair<int, std::uint32_t>, StreamPlan> integration_;
};

}  // namespace wavepim::mapping
