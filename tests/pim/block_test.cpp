#include "pim/block.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "support/block_ops.h"

namespace wavepim::pim {
namespace {

class BlockTest : public ::testing::Test {
 protected:
  ArithModel model_;
  Block block_{&model_};
};

TEST_F(BlockTest, StartsZeroedWithEmptyLedger) {
  EXPECT_EQ(block_.at(0, 0), 0.0f);
  EXPECT_EQ(block_.at(1023, 31), 0.0f);
  EXPECT_EQ(block_.consumed().time.value(), 0.0);
  EXPECT_EQ(block_.consumed().energy.value(), 0.0);
}

TEST_F(BlockTest, RowWriteReadRoundTrip) {
  const std::vector<float> data = {1.0f, -2.5f, 3.25f};
  write_row(block_, 7, 4, data);
  std::vector<float> out(3);
  read_row(block_, 7, 4, out);
  EXPECT_EQ(out, data);
  EXPECT_GT(block_.consumed().time.value(), 0.0);
}

TEST_F(BlockTest, OutOfRangeAccessRejected) {
  std::vector<float> v(4);
  EXPECT_THROW(write_row(block_, 1024, 0, v), PreconditionError);
  EXPECT_THROW(write_row(block_, 0, 30, v), PreconditionError);  // 30+4 > 32
  EXPECT_THROW(read_row(block_, 0, 32, v), PreconditionError);
}

TEST_F(BlockTest, BroadcastReplicatesConstants) {
  const std::vector<float> consts = {3.14f, 2.71f};
  write_row(block_, 512, 10, consts);
  broadcast(block_, 512, 10, 2, 0, 512);
  for (std::uint32_t r = 0; r < 512; ++r) {
    EXPECT_EQ(block_.at(r, 10), 3.14f);
    EXPECT_EQ(block_.at(r, 11), 2.71f);
  }
  // Untouched columns stay zero.
  EXPECT_EQ(block_.at(100, 12), 0.0f);
}

TEST_F(BlockTest, BroadcastCostScalesWithRowCount) {
  Block small(&model_);
  Block large(&model_);
  small.set(512, 0, 1.0f);
  large.set(512, 0, 1.0f);
  broadcast(small, 512, 0, 1, 0, 16);
  broadcast(large, 512, 0, 1, 0, 512);
  EXPECT_GT(large.consumed().time.value(),
            10.0 * small.consumed().time.value());
}

TEST_F(BlockTest, GatherRowsAppliesPermutation) {
  for (std::uint32_t r = 0; r < 8; ++r) {
    block_.set(r, 0, static_cast<float>(r));
  }
  const std::vector<std::uint32_t> perm = {7, 6, 5, 4, 3, 2, 1, 0};
  gather_rows(block_, perm, 0, 0, 1);
  for (std::uint32_t r = 0; r < 8; ++r) {
    EXPECT_EQ(block_.at(r, 1), static_cast<float>(7 - r));
  }
}

TEST_F(BlockTest, GatherHandlesOverlappingSourceAndDestination) {
  // Shift within the same column: must read all sources before writing.
  for (std::uint32_t r = 0; r < 4; ++r) {
    block_.set(r, 5, static_cast<float>(r + 1));
  }
  const std::vector<std::uint32_t> shift = {1, 2, 3, 0};
  gather_rows(block_, shift, 5, 0, 5);
  EXPECT_EQ(block_.at(0, 5), 2.0f);
  EXPECT_EQ(block_.at(1, 5), 3.0f);
  EXPECT_EQ(block_.at(2, 5), 4.0f);
  EXPECT_EQ(block_.at(3, 5), 1.0f);
}

TEST_F(BlockTest, RowParallelArithmetic) {
  for (std::uint32_t r = 0; r < 100; ++r) {
    block_.set(r, 0, static_cast<float>(r));
    block_.set(r, 1, 2.0f);
  }
  arith(block_, Opcode::Fmul, 0, 1, 2, 0, 100);
  arith(block_, Opcode::Fadd, 2, 1, 3, 0, 100);
  arith(block_, Opcode::Fsub, 3, 0, 4, 0, 100);
  for (std::uint32_t r = 0; r < 100; ++r) {
    EXPECT_EQ(block_.at(r, 2), 2.0f * r);
    EXPECT_EQ(block_.at(r, 3), 2.0f * r + 2.0f);
    EXPECT_EQ(block_.at(r, 4), static_cast<float>(r) + 2.0f);
  }
}

TEST_F(BlockTest, ArithRejectsUnsupportedOpcode) {
  EXPECT_THROW(arith(block_, Opcode::MemCpy, 0, 1, 2, 0, 10),
               PreconditionError);
}

TEST_F(BlockTest, FscaleMultipliesByImmediate) {
  for (std::uint32_t r = 0; r < 10; ++r) {
    block_.set(r, 0, static_cast<float>(r));
  }
  fscale(block_, 0, 1, -0.5f, 0, 10);
  for (std::uint32_t r = 0; r < 10; ++r) {
    EXPECT_EQ(block_.at(r, 1), -0.5f * r);
  }
}

TEST_F(BlockTest, FaxpyImplementsIntegrationUpdate) {
  // k = a*k + dt*r, the RK auxiliary update.
  block_.set(0, 0, 10.0f);  // k
  block_.set(0, 1, 4.0f);   // r
  faxpy(block_, 0, 1, 0.5f, 0.25f, 0, 1);
  EXPECT_EQ(block_.at(0, 0), 0.5f * 10.0f + 0.25f * 4.0f);
}

TEST_F(BlockTest, CopyColsDuplicatesColumn) {
  for (std::uint32_t r = 0; r < 50; ++r) {
    block_.set(r, 3, static_cast<float>(2 * r));
  }
  copy_cols(block_, 3, 9, 0, 50);
  for (std::uint32_t r = 0; r < 50; ++r) {
    EXPECT_EQ(block_.at(r, 9), static_cast<float>(2 * r));
  }
}

TEST_F(BlockTest, ArithTimeIndependentOfRowsEnergyNot) {
  Block a(&model_);
  Block b(&model_);
  arith(a, Opcode::Fadd, 0, 1, 2, 0, 1);
  arith(b, Opcode::Fadd, 0, 1, 2, 0, 1024);
  EXPECT_DOUBLE_EQ(a.consumed().time.value(), b.consumed().time.value());
  EXPECT_LT(a.consumed().energy.value(), b.consumed().energy.value());
}

TEST_F(BlockTest, LedgerAccumulatesAndResets) {
  arith(block_, Opcode::Fadd, 0, 1, 2, 0, 10);
  const double t1 = block_.consumed().time.value();
  arith(block_, Opcode::Fadd, 0, 1, 2, 0, 10);
  EXPECT_NEAR(block_.consumed().time.value(), 2 * t1, 1e-15);
  block_.reset_cost();
  EXPECT_EQ(block_.consumed().time.value(), 0.0);
}

TEST_F(BlockTest, ChargeAddsExternalCost) {
  block_.charge({seconds(1.0), joules(2.0)});
  EXPECT_DOUBLE_EQ(block_.consumed().time.value(), 1.0);
  EXPECT_DOUBLE_EQ(block_.consumed().energy.value(), 2.0);
}

TEST(BlockConstruction, RequiresModel) {
  EXPECT_THROW(Block(nullptr), PreconditionError);
}

TEST(BlockConstruction, RowExtentIsStrideAndBound) {
  ArithModel model;
  EXPECT_THROW(Block(&model, 0), PreconditionError);
  EXPECT_THROW(Block(&model, Block::kRows + 1), PreconditionError);

  Block block(&model, 32);
  EXPECT_EQ(block.rows(), 32u);
  EXPECT_EQ(block.words().size(), std::size_t{32} * Block::kWords);
  block.set(31, 2, 5.0f);
  // Column c is the run [c * 32, (c + 1) * 32) of words().
  EXPECT_EQ(block.words()[2 * 32 + 31], 5.0f);
  EXPECT_EQ(block.column(2).size(), 32u);
  EXPECT_EQ(block.column(2)[31], 5.0f);

  // Every access at or past the extent is out of range, although the
  // modelled crossbar has Block::kRows rows.
  const std::vector<float> row(1, 1.0f);
  const std::vector<std::uint32_t> past = {32};
  EXPECT_THROW((void)block.at(32, 0), PreconditionError);
  EXPECT_THROW(write_row(block, 32, 0, row), PreconditionError);
  EXPECT_THROW(arith(block, Opcode::Fadd, 0, 1, 2, 0, 33), PreconditionError);
  EXPECT_THROW(fscale(block, 0, 1, 2.0f, 1, 32), PreconditionError);
  EXPECT_THROW(arith_rows(block, Opcode::Fadd, 0, 1, 2, past),
               PreconditionError);
  EXPECT_THROW(gather_rows(block, past, 0, 0, 1), PreconditionError);
  EXPECT_THROW(broadcast(block, 0, 0, 1, 0, 33), PreconditionError);
  EXPECT_THROW(block.load_column(0, std::vector<float>(33)),
               PreconditionError);
  // The full extent of rows is reachable.
  arith(block, Opcode::Fadd, 2, 2, 3, 0, 32);
  EXPECT_EQ(block.at(31, 3), 10.0f);
}

}  // namespace
}  // namespace wavepim::pim
