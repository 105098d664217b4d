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
/// into a third across a row range in one (bit-serial) operation. The
/// execution plans (mapping/exec_plan, mapping/word_plan) run those
/// operations over the block's columns and charge their modelled
/// time/energy into its ledger; operations within one block are serial
/// (single set of drivers), so the ledger time is the block's busy time.
///
/// Storage is column-major (one contiguous `rows()`-float run per
/// word-column): the hot operations — row-parallel arithmetic, column
/// copies, gathers — walk one or two columns over a row range, so the
/// inner loops are stride-1 and vectorize.
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
  // The ledger charges of a row gather and of a constant scatter. The
  // compiled execution engine pre-folds its per-stream aggregates from
  // these, and the test-side functional oracle charges them per call, so
  // the two accountings cannot drift.

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
