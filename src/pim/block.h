#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "pim/arith.h"

namespace wavepim::pim {

/// One 1K x 1K memristive crossbar memory block — the basic compute unit
/// of the Wave-PIM architecture (§4.1).
///
/// The block is modelled functionally at FP32 word granularity: a row
/// holds 32 words, and row-parallel arithmetic combines two word-columns
/// into a third across a row range in one (bit-serial) operation. Every
/// method both mutates the stored data and accrues the operation's
/// modelled time/energy into the block's ledger; operations within one
/// block are serial (single set of drivers), so the ledger time is the
/// block's busy time.
///
/// Storage is column-major (one contiguous `rows()`-float run per
/// word-column): the hot operations — row-parallel arith/fscale/faxpy,
/// column copies, gathers — walk one or two columns over a row range, so
/// the inner loops are stride-1 and vectorize. The row-buffer I/O
/// methods (write_row/read_row/broadcast) stride instead, but they run
/// once per constant distribution, not once per node per stage.
///
/// The modelled crossbar has kRows rows (costs and capacity use that),
/// but a block stores only its *row extent*, rows [0, rows()) of each
/// column: a chip running DG programs sizes it to an element's node rows
/// (Chip::set_row_extent), 32 instead of 1,024 at n1d = 3. Every address
/// at or past the extent is out of range.
class Block {
 public:
  static constexpr std::uint32_t kRows = ChipConfig::kBlockRows;
  static constexpr std::uint32_t kWords = ChipConfig::kBlockCols /
                                          ChipConfig::kWordBits;

  /// A zeroed block storing rows [0, rows) of every column; `rows` is
  /// in [1, kRows] and defaults to the whole modelled crossbar.
  explicit Block(const ArithModel* model, std::uint32_t rows = kRows);

  /// The storage row extent: column stride in floats and row bound.
  [[nodiscard]] std::uint32_t rows() const { return rows_; }

  // --- Row-buffer I/O ----------------------------------------------------

  /// Writes `values` into consecutive word-columns of one row.
  void write_row(std::uint32_t row, std::uint32_t col,
                 std::span<const float> values);

  /// Reads consecutive word-columns of one row.
  void read_row(std::uint32_t row, std::uint32_t col,
                std::span<float> out);

  /// Replicates `word_count` words of `src_row` into rows
  /// [dst_begin, dst_begin+dst_count) — the constants broadcast of Fig. 5.
  void broadcast(std::uint32_t src_row, std::uint32_t col,
                 std::uint32_t word_count, std::uint32_t dst_begin,
                 std::uint32_t dst_count);

  /// Row permutation through the row buffer: row (dst_begin + i) column
  /// `dst_col` receives the value at (src_rows[i], src_col). This is the
  /// intra-block data movement of the Volume stencil gathers — the
  /// "hardware hazard" that prevents pipelining Volume (§6.3).
  void gather_rows(std::span<const std::uint32_t> src_rows,
                   std::uint32_t src_col, std::uint32_t dst_begin,
                   std::uint32_t dst_col);

  // --- Row-parallel compute ----------------------------------------------

  /// dst = a op b across rows [row_begin, row_begin+count).
  void arith(Opcode op, std::uint32_t col_a, std::uint32_t col_b,
             std::uint32_t col_dst, std::uint32_t row_begin,
             std::uint32_t count);

  /// dst = c * src (immediate constant, e.g. material or GLL weight that
  /// was broadcast into a constants column).
  void fscale(std::uint32_t col_src, std::uint32_t col_dst, float c,
              std::uint32_t row_begin, std::uint32_t count);

  /// dst = a * dst + c * src — the Integration update
  /// (k = A k + dt r fused with u += B k is issued as two Faxpy ops).
  void faxpy(std::uint32_t col_dst, std::uint32_t col_src, float a, float c,
             std::uint32_t row_begin, std::uint32_t count);

  /// Row-parallel column copy.
  void copy_cols(std::uint32_t col_src, std::uint32_t col_dst,
                 std::uint32_t row_begin, std::uint32_t count);

  // --- Row-list variants ---------------------------------------------------
  // Flux kernels act on the face-node rows only (a strided subset); the
  // hardware drives the same row-parallel operation with a row mask, so
  // time matches the contiguous variant at equal row count.

  /// dst = a op b across an explicit row set.
  void arith_rows(Opcode op, std::uint32_t col_a, std::uint32_t col_b,
                  std::uint32_t col_dst, std::span<const std::uint32_t> rows);

  /// dst = c * src across an explicit row set.
  void fscale_rows(std::uint32_t col_src, std::uint32_t col_dst, float c,
                   std::span<const std::uint32_t> rows);

  /// Writes one value per row of an explicit row set (constant
  /// distribution from the storage rows; priced as serial row writes plus
  /// one buffered read per distinct source value).
  void scatter_rows(std::span<const std::uint32_t> rows, std::uint32_t col,
                    std::span<const float> values,
                    std::uint32_t distinct_values);

  // --- Bulk column access ---------------------------------------------------
  // Contiguous storage of one word-column across its rows() rows. The
  // compiled execution engine (mapping/exec_plan) runs its resolved op
  // streams directly over these spans — one bounds check per op instead
  // of one per word — and the state loaders use them for bulk variable
  // moves. Mutating through the span bypasses the ledger by design: the
  // caller accounts the cost (batched per stream, or host-side).

  [[nodiscard]] std::span<const float> column(std::uint32_t col) const;
  [[nodiscard]] std::span<float> column(std::uint32_t col);

  /// The whole column-major storage (kWords * rows() floats; column c is
  /// the run [c * rows(), (c+1) * rows())). The word-level execution tier
  /// (mapping/word_plan) resolves column numbers to offsets into this
  /// span at plan build, leaving zero per-op address computation; like
  /// column(), mutation bypasses the ledger and the caller charges the
  /// pre-folded stream aggregates.
  [[nodiscard]] std::span<const float> words() const {
    return {words_.get(), static_cast<std::size_t>(rows_) * kWords};
  }
  [[nodiscard]] std::span<float> words() {
    return {words_.get(), static_cast<std::size_t>(rows_) * kWords};
  }

  /// Bulk variable load: values[i] -> (i, col). Cost-free like set():
  /// host-side loading is priced by the estimator's batching model.
  void load_column(std::uint32_t col, std::span<const float> values);

  /// Bulk variable read-back: out[i] <- (i, col).
  void store_column(std::uint32_t col, std::span<float> out) const;

  // --- Shared cost formulas -------------------------------------------------
  // The ledger charges of gather_rows / scatter_rows, exposed so the
  // compiled execution engine can pre-fold per-stream aggregates from the
  // *same* formulas the functional methods charge — the two accountings
  // cannot drift.

  [[nodiscard]] static OpCost gather_cost(const ArithModel& model,
                                          std::size_t rows);
  [[nodiscard]] static OpCost scatter_cost(const ArithModel& model,
                                           std::size_t rows,
                                           std::uint32_t distinct_values);

  // --- Inspection / ledger -----------------------------------------------

  [[nodiscard]] float at(std::uint32_t row, std::uint32_t col) const;
  void set(std::uint32_t row, std::uint32_t col, float v);

  [[nodiscard]] const OpCost& consumed() const { return ledger_; }
  void reset_cost() { ledger_ = {}; }

  /// Adds an externally computed cost (e.g. the block-side share of an
  /// inter-block transfer) to this block's serial timeline.
  void charge(const OpCost& cost) { ledger_ += cost; }

  [[nodiscard]] const ArithModel& model() const { return *model_; }

 private:
  [[nodiscard]] std::size_t idx(std::uint32_t row, std::uint32_t col) const;

  const ArithModel* model_;
  std::uint32_t rows_;
  /// kWords * rows_ floats, column-major, zero-initialised.
  std::unique_ptr<float[]> words_;
  OpCost ledger_;
};

}  // namespace wavepim::pim
