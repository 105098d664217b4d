#include "pim/block.h"

#include "common/error.h"

namespace wavepim::pim {

Block::Block(const ArithModel* model, std::uint32_t rows)
    : model_(model), rows_(rows) {
  WAVEPIM_REQUIRE(model != nullptr, "block needs an arithmetic model");
  WAVEPIM_REQUIRE(rows >= 1 && rows <= kRows, "block row extent out of range");
  words_ = std::make_unique<float[]>(static_cast<std::size_t>(rows_) * kWords);
}

// Column-major: one contiguous rows_-float run per word-column, so
// row-parallel ops iterate stride-1.
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

float Block::at(std::uint32_t row, std::uint32_t col) const {
  return words_[idx(row, col)];
}

void Block::set(std::uint32_t row, std::uint32_t col, float v) {
  words_[idx(row, col)] = v;
}

}  // namespace wavepim::pim
