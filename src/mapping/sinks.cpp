#include "mapping/sinks.h"

#include <algorithm>

#include "common/error.h"

namespace wavepim::mapping {

SinkPricing SinkPricing::make(const pim::ArithModel& model,
                              const pim::Interconnect& net) {
  SinkPricing pricing;
  pricing.model = &model;
  const pim::Transfer hop{.src_block = 0, .dst_block = 5, .words = 1};
  pricing.lut_unit = pricing.rows_read(2) + pricing.rows_written(1);
  pricing.lut_unit += {net.isolated_latency(hop), net.transfer_energy(hop)};
  return pricing;
}

pim::OpCost SinkPricing::rows_read(std::size_t n) const {
  const auto& b = model->basic();
  return {b.t_row_read() * static_cast<double>(n),
          b.e_row_access() * static_cast<double>(n)};
}

pim::OpCost SinkPricing::rows_written(std::size_t n) const {
  const auto& b = model->basic();
  return {b.t_row_write() * static_cast<double>(n),
          b.e_row_access() * static_cast<double>(n)};
}

// ---------------------------------------------------------------------------
// CostSink
// ---------------------------------------------------------------------------

CostSink::CostSink(SinkPricing pricing, std::uint32_t num_groups)
    : pricing_(pricing), groups_(num_groups) {
  WAVEPIM_REQUIRE(pricing.model != nullptr, "sink needs an arith model");
}

Seconds CostSink::max_group_time() const {
  Seconds t(0.0);
  for (const auto& g : groups_) {
    t = std::max(t, g.time);
  }
  return t;
}

Joules CostSink::element_energy() const {
  Joules e(0.0);
  for (const auto& g : groups_) {
    e += g.energy;
  }
  return e;
}

void CostSink::scatter(std::uint32_t group,
                       std::span<const std::uint32_t> rows, std::uint32_t,
                       std::span<const float>, std::uint32_t distinct) {
  groups_[group] += pricing_.rows_read(distinct);
  groups_[group] += pricing_.rows_written(rows.size());
}

void CostSink::gather(std::uint32_t group,
                      std::span<const std::uint32_t> src_rows, std::uint32_t,
                      std::uint32_t) {
  groups_[group] += pricing_.rows_read(src_rows.size());
  groups_[group] += pricing_.rows_written(src_rows.size());
}

void CostSink::arith(std::uint32_t group, pim::Opcode op, std::uint32_t,
                     std::uint32_t, std::uint32_t, std::uint32_t rows) {
  groups_[group] += pricing_.model->op_cost(op, rows);
}

void CostSink::fscale(std::uint32_t group, std::uint32_t, std::uint32_t,
                      float, std::uint32_t rows) {
  groups_[group] += pricing_.model->op_cost(pim::Opcode::Fscale, rows);
}

void CostSink::faxpy(std::uint32_t group, std::uint32_t, std::uint32_t, float,
                     float, std::uint32_t rows) {
  groups_[group] += pricing_.model->op_cost(pim::Opcode::Faxpy, rows);
}

void CostSink::arith_rows(std::uint32_t group, pim::Opcode op, std::uint32_t,
                          std::uint32_t, std::uint32_t,
                          std::span<const std::uint32_t> rows) {
  groups_[group] += pricing_.model->op_cost(
      op, static_cast<std::uint32_t>(rows.size()));
}

void CostSink::fscale_rows(std::uint32_t group, std::uint32_t, std::uint32_t,
                           float, std::span<const std::uint32_t> rows) {
  groups_[group] += pricing_.model->op_cost(
      pim::Opcode::Fscale, static_cast<std::uint32_t>(rows.size()));
}

void CostSink::intra_transfer(std::uint32_t src_group, std::uint32_t,
                              std::span<const std::uint32_t> src_rows,
                              std::uint32_t dst_group, std::uint32_t,
                              std::span<const std::uint32_t>) {
  groups_[src_group] += pricing_.rows_read(src_rows.size());
  groups_[dst_group] += pricing_.rows_written(src_rows.size());
  intra_.push_back({src_group, dst_group,
                    static_cast<std::uint32_t>(src_rows.size())});
}

void CostSink::inter_transfer(mesh::Face face, std::uint32_t src_group,
                              std::uint32_t,
                              std::span<const std::uint32_t> src_rows,
                              std::uint32_t dst_group, std::uint32_t,
                              std::span<const std::uint32_t>) {
  // In steady state every block both sends its traces and receives its
  // neighbours'; the representative block is charged both sides.
  groups_[src_group] += pricing_.rows_read(src_rows.size());
  groups_[dst_group] += pricing_.rows_written(src_rows.size());
  inter_.push_back({face, src_group, dst_group,
                    static_cast<std::uint32_t>(src_rows.size())});
}

void CostSink::lut_fetch(std::uint32_t group, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    groups_[group] += pricing_.lut_unit;
  }
  lut_fetches_ += count;
}

}  // namespace wavepim::mapping
