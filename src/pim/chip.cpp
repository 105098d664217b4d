#include "pim/chip.h"

#include <utility>

#include "common/error.h"

namespace wavepim::pim {

Chip::Chip(ChipConfig config, ArithLatency latency, BasicOpParams basic,
           LinkParams link)
    : config_(std::move(config)),
      arith_(latency, basic),
      network_(config_, link),
      blocks_(config_.num_blocks()) {}

Block& Chip::block(std::uint32_t id) {
  WAVEPIM_REQUIRE(id < config_.num_blocks(), "block id out of range");
  auto& slot = blocks_[id];
  if (!slot) {
    slot = std::make_unique<Block>(&arith_, row_extent_);
    ++num_allocated_;
  }
  return *slot;
}

void Chip::ensure_blocks(std::uint32_t count) {
  WAVEPIM_REQUIRE(count <= config_.num_blocks(), "block count out of range");
  for (std::uint32_t id = 0; id < count; ++id) {
    (void)block(id);
  }
}

void Chip::set_row_extent(std::uint32_t rows) {
  WAVEPIM_REQUIRE(rows >= 1 && rows <= Block::kRows,
                  "row extent out of range");
  WAVEPIM_REQUIRE(rows == row_extent_ || num_allocated_ == 0,
                  "row extent changes need a chip with no allocated blocks");
  row_extent_ = rows;
}

bool Chip::block_allocated(std::uint32_t id) const {
  return id < blocks_.size() && blocks_[id] != nullptr;
}

double Chip::static_power_w() const { return chip_static_power_w(config_); }

}  // namespace wavepim::pim
