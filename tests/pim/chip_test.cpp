#include "pim/chip.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace wavepim::pim {
namespace {

TEST(Chip, LazyBlockAllocation) {
  Chip chip(chip_16gb());
  EXPECT_EQ(chip.num_allocated_blocks(), 0u);
  EXPECT_FALSE(chip.block_allocated(7));
  chip.block(7).set(0, 0, 1.0f);
  EXPECT_TRUE(chip.block_allocated(7));
  EXPECT_EQ(chip.num_allocated_blocks(), 1u);
  // Same object on re-access.
  EXPECT_EQ(chip.block(7).at(0, 0), 1.0f);
}

TEST(Chip, RejectsOutOfRangeBlock) {
  Chip chip(chip_512mb());
  EXPECT_THROW((void)chip.block(chip.config().num_blocks()),
               PreconditionError);
}

TEST(Chip, StaticPowerMatchesTableComposition) {
  Chip chip(chip_2gb(Topology::HTree));
  EXPECT_NEAR(chip.static_power_w(), 115.02, 0.5);
}

TEST(Chip, ExposesSubModels) {
  Chip chip(chip_8gb(Topology::Bus));
  EXPECT_EQ(chip.interconnect().topology(), Topology::Bus);
  EXPECT_GT(chip.hbm().bandwidth_bytes_per_s(), 8e11);
  EXPECT_GT(chip.host().power_w(), 0.0);
  EXPECT_EQ(chip.config().name, "PIM-8GB");
}

TEST(Chip, BlocksStoreOnlyTheRowExtent) {
  Chip chip(chip_512mb());
  EXPECT_EQ(chip.row_extent(), Block::kRows);
  chip.set_row_extent(64);
  chip.ensure_blocks(10);
  std::size_t stored = 0;
  for (std::uint32_t id = 0; id < 10; ++id) {
    const Block& block = chip.block(id);
    EXPECT_EQ(block.rows(), 64u);
    EXPECT_EQ(block.column(Block::kWords - 1).size(), 64u);
    stored += block.words().size();
  }
  EXPECT_EQ(stored, std::size_t{10} * 64 * Block::kWords);
  // Rows at or past the extent are out of range; the modelled geometry
  // the cost model prices is unchanged.
  EXPECT_THROW((void)chip.block(0).at(64, 0), PreconditionError);
  EXPECT_EQ(chip.config().num_blocks(), chip_512mb().num_blocks());
}

TEST(Chip, RowExtentIsFixedOnceBlocksExist) {
  Chip chip(chip_512mb());
  EXPECT_THROW(chip.set_row_extent(0), PreconditionError);
  EXPECT_THROW(chip.set_row_extent(Block::kRows + 1), PreconditionError);
  chip.set_row_extent(32);
  (void)chip.block(0);
  chip.set_row_extent(32);  // unchanged: allowed
  EXPECT_THROW(chip.set_row_extent(64), PreconditionError);
  EXPECT_EQ(chip.block(0).rows(), 32u);
}

}  // namespace
}  // namespace wavepim::pim
