#include "pim/block.h"

#include <vector>

#include "common/error.h"

namespace wavepim::pim {

Block::Block(const ArithModel* model, std::uint32_t rows)
    : model_(model), rows_(rows) {
  WAVEPIM_REQUIRE(model != nullptr, "block needs an arithmetic model");
  WAVEPIM_REQUIRE(rows >= 1 && rows <= kRows, "block row extent out of range");
  words_ = std::make_unique<float[]>(static_cast<std::size_t>(rows_) * kWords);
}

// Column-major: one contiguous rows_-float run per word-column, so the
// row-parallel ops below iterate stride-1.
std::size_t Block::idx(std::uint32_t row, std::uint32_t col) const {
  WAVEPIM_REQUIRE(row < rows_ && col < kWords, "block address out of range");
  return static_cast<std::size_t>(col) * rows_ + row;
}

std::span<const float> Block::column(std::uint32_t col) const {
  WAVEPIM_REQUIRE(col < kWords, "block column out of range");
  return {words_.get() + static_cast<std::size_t>(col) * rows_, rows_};
}

std::span<float> Block::column(std::uint32_t col) {
  WAVEPIM_REQUIRE(col < kWords, "block column out of range");
  return {words_.get() + static_cast<std::size_t>(col) * rows_, rows_};
}

void Block::load_column(std::uint32_t col, std::span<const float> values) {
  WAVEPIM_REQUIRE(values.size() <= rows_, "column load overflows rows");
  float* dst = column(col).data();
  for (std::size_t i = 0; i < values.size(); ++i) {
    dst[i] = values[i];
  }
}

void Block::store_column(std::uint32_t col, std::span<float> out) const {
  WAVEPIM_REQUIRE(out.size() <= rows_, "column read overflows rows");
  const float* src = column(col).data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = src[i];
  }
}

void Block::write_row(std::uint32_t row, std::uint32_t col,
                      std::span<const float> values) {
  WAVEPIM_REQUIRE(col + values.size() <= kWords, "row write overflows row");
  for (std::size_t i = 0; i < values.size(); ++i) {
    words_[idx(row, col + static_cast<std::uint32_t>(i))] = values[i];
  }
  ledger_ += {model_->basic().t_row_write(), model_->basic().e_row_access()};
}

void Block::read_row(std::uint32_t row, std::uint32_t col,
                     std::span<float> out) {
  WAVEPIM_REQUIRE(col + out.size() <= kWords, "row read overflows row");
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = words_[idx(row, col + static_cast<std::uint32_t>(i))];
  }
  ledger_ += {model_->basic().t_row_read(), model_->basic().e_row_access()};
}

void Block::broadcast(std::uint32_t src_row, std::uint32_t col,
                      std::uint32_t word_count, std::uint32_t dst_begin,
                      std::uint32_t dst_count) {
  WAVEPIM_REQUIRE(dst_begin + dst_count <= rows_, "broadcast overflows rows");
  WAVEPIM_REQUIRE(src_row < rows_, "block address out of range");
  WAVEPIM_REQUIRE(col + word_count <= kWords, "broadcast overflows columns");
  for (std::uint32_t w = 0; w < word_count; ++w) {
    float* column_run = column(col + w).data();
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
  const auto& b = model_->basic();
  ledger_ += {b.t_row_read() + b.t_row_write() * static_cast<double>(dst_count),
              b.e_row_access() * static_cast<double>(1 + dst_count)};
}

OpCost Block::gather_cost(const ArithModel& model, std::size_t rows) {
  // Serial per row: read + write through the single row buffer.
  const auto& b = model.basic();
  const auto n = static_cast<double>(rows);
  return {(b.t_row_read() + b.t_row_write()) * n,
          b.e_row_access() * (2.0 * n)};
}

OpCost Block::scatter_cost(const ArithModel& model, std::size_t rows,
                           std::uint32_t distinct_values) {
  const auto& b = model.basic();
  const auto n = static_cast<double>(rows);
  return {b.t_row_read() * static_cast<double>(distinct_values) +
              b.t_row_write() * n,
          b.e_row_access() * (distinct_values + n)};
}

void Block::gather_rows(std::span<const std::uint32_t> src_rows,
                        std::uint32_t src_col, std::uint32_t dst_begin,
                        std::uint32_t dst_col) {
  WAVEPIM_REQUIRE(dst_begin + src_rows.size() <= rows_,
                  "gather overflows rows");
  // Copy values out first: the gather must behave like a parallel
  // permutation even when source and destination row ranges overlap. The
  // staging buffer is per-thread so concurrent per-element workers never
  // allocate on the hot path.
  static thread_local std::vector<float> staged;
  staged.resize(src_rows.size());
  const float* src = column(src_col).data();
  for (std::size_t i = 0; i < src_rows.size(); ++i) {
    WAVEPIM_REQUIRE(src_rows[i] < rows_, "block address out of range");
    staged[i] = src[src_rows[i]];
  }
  float* dst = column(dst_col).data() + dst_begin;
  for (std::size_t i = 0; i < src_rows.size(); ++i) {
    dst[i] = staged[i];
  }
  ledger_ += gather_cost(*model_, src_rows.size());
}

void Block::arith(Opcode op, std::uint32_t col_a, std::uint32_t col_b,
                  std::uint32_t col_dst, std::uint32_t row_begin,
                  std::uint32_t count) {
  WAVEPIM_REQUIRE(row_begin + count <= rows_, "arith overflows rows");
  const float* a = column(col_a).data() + row_begin;
  const float* b = column(col_b).data() + row_begin;
  float* dst = column(col_dst).data() + row_begin;
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
  ledger_ += model_->op_cost(op, count);
}

void Block::fscale(std::uint32_t col_src, std::uint32_t col_dst, float c,
                   std::uint32_t row_begin, std::uint32_t count) {
  WAVEPIM_REQUIRE(row_begin + count <= rows_, "fscale overflows rows");
  const float* src = column(col_src).data() + row_begin;
  float* dst = column(col_dst).data() + row_begin;
  for (std::uint32_t r = 0; r < count; ++r) {
    dst[r] = c * src[r];
  }
  ledger_ += model_->op_cost(Opcode::Fscale, count);
}

void Block::faxpy(std::uint32_t col_dst, std::uint32_t col_src, float a,
                  float c, std::uint32_t row_begin, std::uint32_t count) {
  WAVEPIM_REQUIRE(row_begin + count <= rows_, "faxpy overflows rows");
  const float* src = column(col_src).data() + row_begin;
  float* dst = column(col_dst).data() + row_begin;
  for (std::uint32_t r = 0; r < count; ++r) {
    dst[r] = a * dst[r] + c * src[r];
  }
  ledger_ += model_->op_cost(Opcode::Faxpy, count);
}

void Block::copy_cols(std::uint32_t col_src, std::uint32_t col_dst,
                      std::uint32_t row_begin, std::uint32_t count) {
  WAVEPIM_REQUIRE(row_begin + count <= rows_, "copy overflows rows");
  const float* src = column(col_src).data() + row_begin;
  float* dst = column(col_dst).data() + row_begin;
  for (std::uint32_t r = 0; r < count; ++r) {
    dst[r] = src[r];
  }
  ledger_ += model_->op_cost(Opcode::CopyCols, count);
}

void Block::arith_rows(Opcode op, std::uint32_t col_a, std::uint32_t col_b,
                       std::uint32_t col_dst,
                       std::span<const std::uint32_t> rows) {
  const float* a = column(col_a).data();
  const float* b = column(col_b).data();
  float* dst = column(col_dst).data();
  for (std::uint32_t r : rows) {
    WAVEPIM_REQUIRE(r < rows_, "block address out of range");
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
  ledger_ += model_->op_cost(op, static_cast<std::uint32_t>(rows.size()));
}

void Block::fscale_rows(std::uint32_t col_src, std::uint32_t col_dst, float c,
                        std::span<const std::uint32_t> rows) {
  const float* src = column(col_src).data();
  float* dst = column(col_dst).data();
  for (std::uint32_t r : rows) {
    WAVEPIM_REQUIRE(r < rows_, "block address out of range");
    dst[r] = c * src[r];
  }
  ledger_ +=
      model_->op_cost(Opcode::Fscale, static_cast<std::uint32_t>(rows.size()));
}

void Block::scatter_rows(std::span<const std::uint32_t> rows,
                         std::uint32_t col, std::span<const float> values,
                         std::uint32_t distinct_values) {
  WAVEPIM_REQUIRE(rows.size() == values.size(),
                  "scatter needs one value per row");
  float* dst = column(col).data();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    WAVEPIM_REQUIRE(rows[i] < rows_, "block address out of range");
    dst[rows[i]] = values[i];
  }
  ledger_ += scatter_cost(*model_, rows.size(), distinct_values);
}

float Block::at(std::uint32_t row, std::uint32_t col) const {
  return words_[idx(row, col)];
}

void Block::set(std::uint32_t row, std::uint32_t col, float v) {
  words_[idx(row, col)] = v;
}

}  // namespace wavepim::pim
