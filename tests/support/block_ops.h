#pragma once

// The functional oracle's block operations: each mutates one pim::Block
// through its columns and charges the operation's modelled cost into the
// block's ledger, one call at a time. The shipped execution plans run the
// same operations as resolved op streams (mapping/exec_plan,
// mapping/word_plan) and charge pre-folded aggregates; tests drive both
// and compare words and ledgers bit for bit.

#include <cstdint>
#include <span>

#include "pim/block.h"

namespace wavepim::pim {

// --- Row-buffer I/O ----------------------------------------------------

/// Writes `values` into consecutive word-columns of one row.
void write_row(Block& block, std::uint32_t row, std::uint32_t col,
               std::span<const float> values);

/// Reads consecutive word-columns of one row.
void read_row(Block& block, std::uint32_t row, std::uint32_t col,
              std::span<float> out);

/// Replicates `word_count` words of `src_row` into rows
/// [dst_begin, dst_begin+dst_count) — the constants broadcast of Fig. 5.
void broadcast(Block& block, std::uint32_t src_row, std::uint32_t col,
               std::uint32_t word_count, std::uint32_t dst_begin,
               std::uint32_t dst_count);

/// Row permutation through the row buffer: row (dst_begin + i) column
/// `dst_col` receives the value at (src_rows[i], src_col). This is the
/// intra-block data movement of the Volume stencil gathers — the
/// "hardware hazard" that prevents pipelining Volume (§6.3).
void gather_rows(Block& block, std::span<const std::uint32_t> src_rows,
                 std::uint32_t src_col, std::uint32_t dst_begin,
                 std::uint32_t dst_col);

// --- Row-parallel compute ----------------------------------------------

/// dst = a op b across rows [row_begin, row_begin+count).
void arith(Block& block, Opcode op, std::uint32_t col_a, std::uint32_t col_b,
           std::uint32_t col_dst, std::uint32_t row_begin,
           std::uint32_t count);

/// dst = c * src (immediate constant, e.g. material or GLL weight that
/// was broadcast into a constants column).
void fscale(Block& block, std::uint32_t col_src, std::uint32_t col_dst,
            float c, std::uint32_t row_begin, std::uint32_t count);

/// dst = a * dst + c * src — the Integration update
/// (k = A k + dt r fused with u += B k is issued as two Faxpy ops).
void faxpy(Block& block, std::uint32_t col_dst, std::uint32_t col_src,
           float a, float c, std::uint32_t row_begin, std::uint32_t count);

/// Row-parallel column copy.
void copy_cols(Block& block, std::uint32_t col_src, std::uint32_t col_dst,
               std::uint32_t row_begin, std::uint32_t count);

// --- Row-list variants ---------------------------------------------------
// Flux kernels act on the face-node rows only (a strided subset); the
// hardware drives the same row-parallel operation with a row mask, so
// time matches the contiguous variant at equal row count.

/// dst = a op b across an explicit row set.
void arith_rows(Block& block, Opcode op, std::uint32_t col_a,
                std::uint32_t col_b, std::uint32_t col_dst,
                std::span<const std::uint32_t> rows);

/// dst = c * src across an explicit row set.
void fscale_rows(Block& block, std::uint32_t col_src, std::uint32_t col_dst,
                 float c, std::span<const std::uint32_t> rows);

/// Writes one value per row of an explicit row set (constant
/// distribution from the storage rows; priced as serial row writes plus
/// one buffered read per distinct source value).
void scatter_rows(Block& block, std::span<const std::uint32_t> rows,
                  std::uint32_t col, std::span<const float> values,
                  std::uint32_t distinct_values);

}  // namespace wavepim::pim
