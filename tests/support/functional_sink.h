#pragma once

// The functional oracle's sink: executes an emitted program bit-true on
// crossbar blocks, one call at a time, through the ledgered block ops of
// support/block_ops.h. The compiled plan re-implements the same execution and
// accounting (resolved op arrays, batched per-block charges, pre-merged
// transfer lists); tests drive both and compare them bit for bit.

#include <array>
#include <utility>
#include <vector>

#include "mapping/element_program.h"
#include "mapping/sinks.h"
#include "mesh/structured_mesh.h"
#include "pim/chip.h"

namespace wavepim::mapping {

/// Executes the emitted program bit-true on a Chip's crossbar blocks and
/// collects the inter-block transfers of the phase for interconnect
/// scheduling. Bind the current element (and thereby its neighbours via
/// the mesh) before emitting.
class FunctionalSink : public ProgramSink {
 public:
  FunctionalSink(BlockResolver resolver, const mesh::StructuredMesh& mesh,
                 Placement placement, SinkPricing pricing);

  /// Sets the element whose program is being emitted.
  void bind(mesh::ElementId element);

  [[nodiscard]] const std::vector<pim::Transfer>& transfers() const {
    return transfers_;
  }
  /// Moves the collected transfers out, leaving the sink's list empty.
  [[nodiscard]] std::vector<pim::Transfer> take_transfers() {
    return std::exchange(transfers_, {});
  }

  /// A source-block read cost an `inter_transfer` owes to the *neighbour*
  /// element's block. In deferred mode these are recorded instead of
  /// charged, so an element's emission never writes another element's
  /// ledger; the caller settles them afterwards, as the simulator's flux
  /// phase B does.
  struct DeferredCharge {
    std::uint32_t block;  ///< global id of the neighbour's source block
    std::uint32_t words;  ///< rows read out of it
  };

  /// Enables deferral of neighbour-side charges. Data still moves
  /// immediately — flux only *reads* neighbour variable columns, which no
  /// element writes during the phase, so the words themselves are safe.
  void defer_remote_charges(bool enable) { defer_remote_ = enable; }

  /// Deferred charges of the bound element's pulls, keyed by the face they
  /// crossed, in emission order; leaves the sink's lists empty.
  [[nodiscard]] std::array<std::vector<DeferredCharge>, 6>
  take_remote_charges() {
    return std::exchange(remote_charges_, {});
  }

  [[nodiscard]] pim::Block& block_of(mesh::ElementId element,
                                     std::uint32_t group);

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
  void move_rows(pim::Block& src, std::uint32_t src_col,
                 std::span<const std::uint32_t> src_rows, pim::Block& dst,
                 std::uint32_t dst_col,
                 std::span<const std::uint32_t> dst_rows);

  BlockResolver resolver_;
  const mesh::StructuredMesh& mesh_;
  Placement placement_;
  SinkPricing pricing_;
  mesh::ElementId element_ = 0;
  bool defer_remote_ = false;
  std::vector<pim::Transfer> transfers_;
  std::array<std::vector<DeferredCharge>, 6> remote_charges_;
};

}  // namespace wavepim::mapping
