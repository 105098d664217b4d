#include "support/functional_sink.h"

#include "common/error.h"
#include "support/block_ops.h"

namespace wavepim::mapping {

FunctionalSink::FunctionalSink(BlockResolver resolver,
                               const mesh::StructuredMesh& mesh,
                               Placement placement, SinkPricing pricing)
    : resolver_(resolver), mesh_(mesh), placement_(placement),
      pricing_(pricing) {
  WAVEPIM_REQUIRE(pricing.model != nullptr, "sink needs an arith model");
}

void FunctionalSink::bind(mesh::ElementId element) { element_ = element; }

pim::Block& FunctionalSink::block_of(mesh::ElementId element,
                                     std::uint32_t group) {
  return resolver_(placement_.block_of(element, group));
}

void FunctionalSink::scatter(std::uint32_t group,
                             std::span<const std::uint32_t> rows,
                             std::uint32_t col,
                             std::span<const float> values,
                             std::uint32_t distinct_values) {
  pim::scatter_rows(block_of(element_, group), rows, col, values,
                    distinct_values);
}

void FunctionalSink::gather(std::uint32_t group,
                            std::span<const std::uint32_t> src_rows,
                            std::uint32_t src_col, std::uint32_t dst_col) {
  pim::gather_rows(block_of(element_, group), src_rows, src_col, 0, dst_col);
}

void FunctionalSink::arith(std::uint32_t group, pim::Opcode op,
                           std::uint32_t col_a, std::uint32_t col_b,
                           std::uint32_t col_dst, std::uint32_t rows) {
  pim::arith(block_of(element_, group), op, col_a, col_b, col_dst, 0, rows);
}

void FunctionalSink::fscale(std::uint32_t group, std::uint32_t col_src,
                            std::uint32_t col_dst, float imm,
                            std::uint32_t rows) {
  pim::fscale(block_of(element_, group), col_src, col_dst, imm, 0, rows);
}

void FunctionalSink::faxpy(std::uint32_t group, std::uint32_t col_dst,
                           std::uint32_t col_src, float a, float c,
                           std::uint32_t rows) {
  pim::faxpy(block_of(element_, group), col_dst, col_src, a, c, 0, rows);
}

void FunctionalSink::arith_rows(std::uint32_t group, pim::Opcode op,
                                std::uint32_t col_a, std::uint32_t col_b,
                                std::uint32_t col_dst,
                                std::span<const std::uint32_t> rows) {
  pim::arith_rows(block_of(element_, group), op, col_a, col_b, col_dst, rows);
}

void FunctionalSink::fscale_rows(std::uint32_t group, std::uint32_t col_src,
                                 std::uint32_t col_dst, float imm,
                                 std::span<const std::uint32_t> rows) {
  pim::fscale_rows(block_of(element_, group), col_src, col_dst, imm, rows);
}

void FunctionalSink::move_rows(pim::Block& src, std::uint32_t src_col,
                               std::span<const std::uint32_t> src_rows,
                               pim::Block& dst, std::uint32_t dst_col,
                               std::span<const std::uint32_t> dst_rows) {
  WAVEPIM_REQUIRE(src_rows.size() == dst_rows.size(),
                  "transfer row lists must match");
  for (std::size_t i = 0; i < src_rows.size(); ++i) {
    dst.set(dst_rows[i], dst_col, src.at(src_rows[i], src_col));
  }
  // Destination-side cost: serial row writes (the I_4 instructions of
  // §4.2.1). The source-side reads are charged by the caller — immediately
  // for same-element moves, possibly deferred for neighbour pulls — and
  // the switch leg is priced when the collected transfers are scheduled on
  // the interconnect.
  dst.charge(pricing_.rows_written(dst_rows.size()));
}

void FunctionalSink::intra_transfer(std::uint32_t src_group,
                                    std::uint32_t src_col,
                                    std::span<const std::uint32_t> src_rows,
                                    std::uint32_t dst_group,
                                    std::uint32_t dst_col,
                                    std::span<const std::uint32_t> dst_rows) {
  pim::Block& src = block_of(element_, src_group);
  move_rows(src, src_col, src_rows, block_of(element_, dst_group), dst_col,
            dst_rows);
  src.charge(pricing_.rows_read(src_rows.size()));
  transfers_.push_back(
      {.src_block = placement_.block_of(element_, src_group),
       .dst_block = placement_.block_of(element_, dst_group),
       .words = static_cast<std::uint32_t>(src_rows.size())});
}

void FunctionalSink::inter_transfer(mesh::Face face, std::uint32_t src_group,
                                    std::uint32_t src_col,
                                    std::span<const std::uint32_t> src_rows,
                                    std::uint32_t dst_group,
                                    std::uint32_t dst_col,
                                    std::span<const std::uint32_t> dst_rows) {
  const auto neighbor = mesh_.neighbor(element_, face);
  WAVEPIM_REQUIRE(neighbor.has_value(),
                  "inter_transfer emitted for a boundary face");
  pim::Block& src = block_of(*neighbor, src_group);
  move_rows(src, src_col, src_rows, block_of(element_, dst_group), dst_col,
            dst_rows);
  const std::uint32_t src_block = placement_.block_of(*neighbor, src_group);
  const auto words = static_cast<std::uint32_t>(src_rows.size());
  if (defer_remote_) {
    remote_charges_[mesh::index_of(face)].push_back({src_block, words});
  } else {
    src.charge(pricing_.rows_read(words));
  }
  transfers_.push_back({.src_block = src_block,
                        .dst_block = placement_.block_of(element_, dst_group),
                        .words = words});
}

void FunctionalSink::lut_fetch(std::uint32_t group, std::uint32_t count) {
  // Immediates are already folded into the emitted constants; charge the
  // Algorithm-1 cost of materialising them from the LUT block.
  pim::OpCost total{};
  for (std::uint32_t i = 0; i < count; ++i) {
    total += pricing_.lut_unit;
  }
  block_of(element_, group).charge(total);
}

}  // namespace wavepim::mapping
