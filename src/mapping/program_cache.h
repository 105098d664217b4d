#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "mapping/element_program.h"
#include "mesh/structured_mesh.h"

namespace wavepim::mapping {

/// Shape-class program cache (the SIMDRAM-style lower-once / replay-many
/// model applied to the mapping layer).
///
/// A structured mesh has only a handful of distinct element *shapes*:
/// the equivalence class of (volume-coefficient set, per-face boundary
/// kind and flux-coefficient set) under a fixed ElementSetup. Every
/// element of a class emits the identical Volume / Flux instruction
/// stream — only the *addresses* (which chip blocks, which
/// neighbour) differ, and those are resolved by the executing sink, not
/// by the stream. The cache therefore lowers each class exactly once
/// into a shared flat arena and replays the stream per element.
///
/// Relocatable encoding: cached instructions reuse pim::Instruction but
/// hold *element-relative* operands —
///   * `block` / `peer_block` carry the element-local group index, not a
///     chip block id (the sink's Placement binds them per element);
///   * MemCpy carries a face tag in `row`: 0 for an intra-element
///     staging move, 1 + mesh::index_of(face) for a pull from that
///     face's neighbour (the replayer turns it back into
///     intra_transfer / inter_transfer);
///   * LutLookup folds the fetch count into `word_count` (one cached
///     instruction per lut_fetch call).

/// Span of one kernel's instructions inside the arena. Kept as indices
/// (not spans) so streams stay valid while the arena keeps growing.
struct StreamRef {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// Flat shared storage for every cached class: one instruction vector
/// plus deduplicated row-permutation and constant-vector side tables.
/// Deduplication is exact (bitwise on floats), so two classes sharing
/// the reference element's gather patterns share one table.
class ProgramArena {
 public:
  void append(const pim::Instruction& inst) { instructions_.push_back(inst); }

  /// Interns a row table / value table, returning its id. Identical
  /// contents return the same id.
  std::uint32_t add_rows(std::span<const std::uint32_t> rows);
  std::uint32_t add_values(std::span<const float> values);

  [[nodiscard]] std::span<const pim::Instruction> view(StreamRef ref) const {
    return {instructions_.data() + ref.first, ref.count};
  }
  [[nodiscard]] std::span<const std::uint32_t> rows(std::uint32_t id) const {
    return row_tables_[id];
  }
  [[nodiscard]] std::span<const float> values(std::uint32_t id) const {
    return value_tables_[id];
  }

  [[nodiscard]] std::uint32_t num_instructions() const {
    return static_cast<std::uint32_t>(instructions_.size());
  }
  [[nodiscard]] std::size_t num_row_tables() const {
    return row_tables_.size();
  }
  [[nodiscard]] std::size_t num_value_tables() const {
    return value_tables_.size();
  }

 private:
  std::vector<pim::Instruction> instructions_;
  std::vector<std::vector<std::uint32_t>> row_tables_;
  std::vector<std::vector<float>> value_tables_;
  std::map<std::vector<std::uint32_t>, std::uint32_t> row_ids_;
  std::map<std::vector<float>, std::uint32_t> value_ids_;
};

/// ProgramSink that lowers an emitted kernel into the arena in the
/// relocatable encoding above. Element-agnostic by construction: it
/// never consults a mesh or placement, which is what makes the stream
/// shareable across every element of the class.
class RelocatableAssembler : public ProgramSink {
 public:
  explicit RelocatableAssembler(ProgramArena& arena) : arena_(arena) {}

  void scatter(std::uint32_t group, std::span<const std::uint32_t> rows,
               std::uint32_t col, std::span<const float> values,
               std::uint32_t distinct_values) override;
  void gather(std::uint32_t group, std::span<const std::uint32_t> src_rows,
              std::uint32_t src_col, std::uint32_t dst_col) override;
  void arith(std::uint32_t group, pim::Opcode op, std::uint32_t col_a,
             std::uint32_t col_b, std::uint32_t col_dst,
             std::uint32_t rows) override;
  void fscale(std::uint32_t group, std::uint32_t col_src,
              std::uint32_t col_dst, float imm, std::uint32_t rows) override;
  void faxpy(std::uint32_t group, std::uint32_t col_dst,
             std::uint32_t col_src, float a, float c,
             std::uint32_t rows) override;
  void arith_rows(std::uint32_t group, pim::Opcode op, std::uint32_t col_a,
                  std::uint32_t col_b, std::uint32_t col_dst,
                  std::span<const std::uint32_t> rows) override;
  void fscale_rows(std::uint32_t group, std::uint32_t col_src,
                   std::uint32_t col_dst, float imm,
                   std::span<const std::uint32_t> rows) override;
  void intra_transfer(std::uint32_t src_group, std::uint32_t src_col,
                      std::span<const std::uint32_t> src_rows,
                      std::uint32_t dst_group, std::uint32_t dst_col,
                      std::span<const std::uint32_t> dst_rows) override;
  void inter_transfer(mesh::Face face, std::uint32_t src_group,
                      std::uint32_t src_col,
                      std::span<const std::uint32_t> src_rows,
                      std::uint32_t dst_group, std::uint32_t dst_col,
                      std::span<const std::uint32_t> dst_rows) override;
  void lut_fetch(std::uint32_t group, std::uint32_t count) override;

 private:
  pim::Instruction memcpy_like(std::uint32_t src_group, std::uint32_t src_col,
                               std::span<const std::uint32_t> src_rows,
                               std::uint32_t dst_group, std::uint32_t dst_col,
                               std::span<const std::uint32_t> dst_rows);

  ProgramArena& arena_;
};

/// Replays a cached relocatable stream through a sink. The sink resolves
/// the element-relative operands — the compiled plan's builder decodes
/// them into op arrays and the test-side FunctionalSink executes them on
/// crossbar blocks. The replayed call sequence is identical to the
/// original emission (tests/mapping/assembler_test.cpp checks it call by
/// call), so any sink-observable property (fields, ledgers, transfer
/// lists, deferred charges) is bit-identical to uncached emission.
void replay(const ProgramArena& arena, StreamRef stream, ProgramSink& sink);

/// Per-element shape class: which interned coefficient sets feed the
/// kernels and which faces are reflective walls. Elements with equal
/// keys lower to the identical stream.
struct FaceClass {
  bool boundary = false;
  std::uint32_t coeff_id = 0;  ///< interned FluxCoeffs id (0 = setup default)

  auto operator<=>(const FaceClass&) const = default;
};

struct ShapeClassKey {
  std::uint32_t volume_coeff_id = 0;  ///< interned VolumeCoeffs id (0 = default)
  std::array<FaceClass, 6> faces{};

  auto operator<=>(const ShapeClassKey&) const = default;
};

/// Lowers and owns the Volume and Flux streams of every shape class of
/// one problem. The cache is immutable once constructed, so any number
/// of workers — and any number of *simulations* — may replay it without
/// a lock: the service's ProgramBank hands one cache to every tenant of
/// the same shape class without copying a stream. Integration stages are
/// class-independent full-column updates with no row or value tables, so
/// they are not cached: ExecutionPlan::integration emits them directly.
class ProgramCache {
 public:
  /// Classifies every element of `mesh` (with optional per-element
  /// heterogeneous coefficient overrides, indexed like the simulation's)
  /// and lowers each distinct class once.
  ProgramCache(const ElementSetup& setup, const mesh::StructuredMesh& mesh,
               const std::vector<VolumeCoeffs>* volume_overrides,
               const std::vector<std::array<FluxCoeffs, 6>>* flux_overrides);

  [[nodiscard]] const ElementSetup& setup() const { return setup_; }
  [[nodiscard]] const ProgramArena& arena() const { return arena_; }

  [[nodiscard]] std::uint32_t num_classes() const {
    return static_cast<std::uint32_t>(classes_.size());
  }
  [[nodiscard]] std::uint32_t class_of(mesh::ElementId e) const {
    return class_of_[e];
  }

  [[nodiscard]] StreamRef volume(std::uint32_t cls) const {
    return classes_[cls].volume;
  }
  [[nodiscard]] StreamRef flux(std::uint32_t cls, mesh::Face f) const {
    return classes_[cls].flux[mesh::index_of(f)];
  }

 private:
  struct ClassStreams {
    StreamRef volume;
    std::array<StreamRef, 6> flux;
  };

  std::uint32_t lower_class(const ShapeClassKey& key,
                            const VolumeCoeffs* volume,
                            const std::array<const FluxCoeffs*, 6>& flux);

  const ElementSetup& setup_;
  ProgramArena arena_;
  std::vector<ClassStreams> classes_;
  std::vector<std::uint32_t> class_of_;  ///< per element
};

}  // namespace wavepim::mapping
