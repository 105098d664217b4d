#include "support/block_ops.h"

#include <vector>

#include "common/error.h"

namespace wavepim::pim {

void write_row(Block& block, std::uint32_t row, std::uint32_t col,
               std::span<const float> values) {
  WAVEPIM_REQUIRE(col + values.size() <= Block::kWords,
                  "row write overflows row");
  for (std::size_t i = 0; i < values.size(); ++i) {
    block.set(row, col + static_cast<std::uint32_t>(i), values[i]);
  }
  const auto& b = block.model().basic();
  block.charge({b.t_row_write(), b.e_row_access()});
}

void read_row(Block& block, std::uint32_t row, std::uint32_t col,
              std::span<float> out) {
  WAVEPIM_REQUIRE(col + out.size() <= Block::kWords, "row read overflows row");
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = block.at(row, col + static_cast<std::uint32_t>(i));
  }
  const auto& b = block.model().basic();
  block.charge({b.t_row_read(), b.e_row_access()});
}

void broadcast(Block& block, std::uint32_t src_row, std::uint32_t col,
               std::uint32_t word_count, std::uint32_t dst_begin,
               std::uint32_t dst_count) {
  WAVEPIM_REQUIRE(dst_begin + dst_count <= block.rows(),
                  "broadcast overflows rows");
  WAVEPIM_REQUIRE(src_row < block.rows(), "block address out of range");
  WAVEPIM_REQUIRE(col + word_count <= Block::kWords,
                  "broadcast overflows columns");
  for (std::uint32_t w = 0; w < word_count; ++w) {
    float* column_run = block.column(col + w).data();
    const float v = column_run[src_row];
    for (std::uint32_t r = 0; r < dst_count; ++r) {
      const std::uint32_t dst = dst_begin + r;
      if (dst == src_row) {
        continue;
      }
      column_run[dst] = v;
    }
  }
  // One buffered read then one write per destination row.
  const auto& b = block.model().basic();
  block.charge(
      {b.t_row_read() + b.t_row_write() * static_cast<double>(dst_count),
       b.e_row_access() * static_cast<double>(1 + dst_count)});
}

void gather_rows(Block& block, std::span<const std::uint32_t> src_rows,
                 std::uint32_t src_col, std::uint32_t dst_begin,
                 std::uint32_t dst_col) {
  WAVEPIM_REQUIRE(dst_begin + src_rows.size() <= block.rows(),
                  "gather overflows rows");
  // Copy values out first: the gather must behave like a parallel
  // permutation even when source and destination row ranges overlap. The
  // staging buffer is per-thread so concurrent per-element workers never
  // allocate on the hot path.
  static thread_local std::vector<float> staged;
  staged.resize(src_rows.size());
  const float* src = block.column(src_col).data();
  for (std::size_t i = 0; i < src_rows.size(); ++i) {
    WAVEPIM_REQUIRE(src_rows[i] < block.rows(), "block address out of range");
    staged[i] = src[src_rows[i]];
  }
  float* dst = block.column(dst_col).data() + dst_begin;
  for (std::size_t i = 0; i < src_rows.size(); ++i) {
    dst[i] = staged[i];
  }
  block.charge(Block::gather_cost(block.model(), src_rows.size()));
}

void arith(Block& block, Opcode op, std::uint32_t col_a, std::uint32_t col_b,
           std::uint32_t col_dst, std::uint32_t row_begin,
           std::uint32_t count) {
  WAVEPIM_REQUIRE(row_begin + count <= block.rows(), "arith overflows rows");
  const float* a = block.column(col_a).data() + row_begin;
  const float* b = block.column(col_b).data() + row_begin;
  float* dst = block.column(col_dst).data() + row_begin;
  switch (op) {
    case Opcode::Fadd:
      for (std::uint32_t r = 0; r < count; ++r) {
        dst[r] = a[r] + b[r];
      }
      break;
    case Opcode::Fsub:
      for (std::uint32_t r = 0; r < count; ++r) {
        dst[r] = a[r] - b[r];
      }
      break;
    case Opcode::Fmul:
      for (std::uint32_t r = 0; r < count; ++r) {
        dst[r] = a[r] * b[r];
      }
      break;
    default:
      WAVEPIM_REQUIRE(false, "unsupported two-operand arith opcode");
  }
  block.charge(block.model().op_cost(op, count));
}

void fscale(Block& block, std::uint32_t col_src, std::uint32_t col_dst,
            float c, std::uint32_t row_begin, std::uint32_t count) {
  WAVEPIM_REQUIRE(row_begin + count <= block.rows(), "fscale overflows rows");
  const float* src = block.column(col_src).data() + row_begin;
  float* dst = block.column(col_dst).data() + row_begin;
  for (std::uint32_t r = 0; r < count; ++r) {
    dst[r] = c * src[r];
  }
  block.charge(block.model().op_cost(Opcode::Fscale, count));
}

void faxpy(Block& block, std::uint32_t col_dst, std::uint32_t col_src,
           float a, float c, std::uint32_t row_begin, std::uint32_t count) {
  WAVEPIM_REQUIRE(row_begin + count <= block.rows(), "faxpy overflows rows");
  const float* src = block.column(col_src).data() + row_begin;
  float* dst = block.column(col_dst).data() + row_begin;
  for (std::uint32_t r = 0; r < count; ++r) {
    dst[r] = a * dst[r] + c * src[r];
  }
  block.charge(block.model().op_cost(Opcode::Faxpy, count));
}

void copy_cols(Block& block, std::uint32_t col_src, std::uint32_t col_dst,
               std::uint32_t row_begin, std::uint32_t count) {
  WAVEPIM_REQUIRE(row_begin + count <= block.rows(), "copy overflows rows");
  const float* src = block.column(col_src).data() + row_begin;
  float* dst = block.column(col_dst).data() + row_begin;
  for (std::uint32_t r = 0; r < count; ++r) {
    dst[r] = src[r];
  }
  block.charge(block.model().op_cost(Opcode::CopyCols, count));
}

void arith_rows(Block& block, Opcode op, std::uint32_t col_a,
                std::uint32_t col_b, std::uint32_t col_dst,
                std::span<const std::uint32_t> rows) {
  const float* a = block.column(col_a).data();
  const float* b = block.column(col_b).data();
  float* dst = block.column(col_dst).data();
  for (std::uint32_t r : rows) {
    WAVEPIM_REQUIRE(r < block.rows(), "block address out of range");
    float v = 0.0f;
    switch (op) {
      case Opcode::Fadd:
        v = a[r] + b[r];
        break;
      case Opcode::Fsub:
        v = a[r] - b[r];
        break;
      case Opcode::Fmul:
        v = a[r] * b[r];
        break;
      default:
        WAVEPIM_REQUIRE(false, "unsupported two-operand arith opcode");
    }
    dst[r] = v;
  }
  block.charge(
      block.model().op_cost(op, static_cast<std::uint32_t>(rows.size())));
}

void fscale_rows(Block& block, std::uint32_t col_src, std::uint32_t col_dst,
                 float c, std::span<const std::uint32_t> rows) {
  const float* src = block.column(col_src).data();
  float* dst = block.column(col_dst).data();
  for (std::uint32_t r : rows) {
    WAVEPIM_REQUIRE(r < block.rows(), "block address out of range");
    dst[r] = c * src[r];
  }
  block.charge(block.model().op_cost(Opcode::Fscale,
                                     static_cast<std::uint32_t>(rows.size())));
}

void scatter_rows(Block& block, std::span<const std::uint32_t> rows,
                  std::uint32_t col, std::span<const float> values,
                  std::uint32_t distinct_values) {
  WAVEPIM_REQUIRE(rows.size() == values.size(),
                  "scatter needs one value per row");
  float* dst = block.column(col).data();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    WAVEPIM_REQUIRE(rows[i] < block.rows(), "block address out of range");
    dst[rows[i]] = values[i];
  }
  block.charge(Block::scatter_cost(block.model(), rows.size(),
                                   distinct_values));
}

}  // namespace wavepim::pim
