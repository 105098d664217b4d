#include "support/lut.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"

namespace wavepim::pim {
namespace {

class LutTest : public ::testing::Test {
 protected:
  ArithModel model_;
  Interconnect net_{chip_2gb(Topology::HTree)};
  Block compute_{&model_};
  Block storage_{&model_};
};

TEST_F(LutTest, LoadsContentsIntoBlockRows) {
  std::vector<float> contents(100);
  for (std::size_t i = 0; i < contents.size(); ++i) {
    contents[i] = std::sqrt(static_cast<float>(i));
  }
  const LookupTable table(/*block_id=*/42, contents, storage_);
  EXPECT_EQ(table.size(), 100u);
  EXPECT_EQ(table.block_id(), 42u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(table.value_at(i, storage_), contents[i]);
  }
  EXPECT_GT(table.load_cost().time.value(), 0.0);
}

TEST_F(LutTest, RejectsEmptyAndOversizedTables) {
  EXPECT_THROW(LookupTable(0, {}, storage_), PreconditionError);
  const std::vector<float> too_big(Block::kRows * Block::kWords + 1);
  EXPECT_THROW(LookupTable(0, too_big, storage_), PreconditionError);
}

TEST_F(LutTest, ExecutesAlgorithm1EndToEnd) {
  // Table of reciprocals (the "inverse" offload of §5.1).
  std::vector<float> contents(64);
  for (std::size_t i = 0; i < contents.size(); ++i) {
    contents[i] = 1.0f / static_cast<float>(i + 1);
  }
  const LookupTable table(/*block_id=*/8, contents, storage_);

  // The compute block generated index 9 at (row 3, offset 2).
  compute_.set(3, 2, 9.0f);
  const LutInstructionFields inst{.opcode = kLutOpcode,
                                  .row_id = 3,
                                  .offset_s = 2,
                                  .lut_block_id = 8,
                                  .offset_d = 11};
  const float got = execute_lut(inst, compute_, /*compute_block_id=*/0,
                                storage_, table, net_);
  EXPECT_EQ(got, contents[9]);
  // W_1 stored the content at the destination offset.
  EXPECT_EQ(compute_.at(3, 11), contents[9]);
  // Both blocks were charged.
  EXPECT_GT(compute_.consumed().time.value(), 0.0);
}

TEST_F(LutTest, WireFormatDrivesExecution) {
  std::vector<float> contents = {10.0f, 20.0f, 30.0f};
  const LookupTable table(/*block_id=*/3, contents, storage_);
  compute_.set(0, 0, 2.0f);  // index 2

  const LutInstructionFields fields{.opcode = kLutOpcode,
                                    .row_id = 0,
                                    .offset_s = 0,
                                    .lut_block_id = 3,
                                    .offset_d = 1};
  // Round-trip through the 64-bit encoding before executing.
  const auto decoded = decode_lut(encode_lut(fields));
  const float got = execute_lut(decoded, compute_, 0, storage_, table, net_);
  EXPECT_EQ(got, 30.0f);
}

TEST_F(LutTest, MismatchedTableRejected) {
  const std::vector<float> contents = {1.0f};
  const LookupTable table(/*block_id=*/5, contents, storage_);
  const LutInstructionFields inst{.opcode = kLutOpcode, .lut_block_id = 4};
  EXPECT_THROW(
      (void)execute_lut(inst, compute_, 0, storage_, table, net_),
      PreconditionError);
}

TEST_F(LutTest, InterBlockLegChargedForRemoteLut) {
  std::vector<float> contents = {7.0f};
  const LookupTable table(/*block_id=*/100, contents, storage_);
  compute_.set(0, 0, 0.0f);
  const LutInstructionFields inst{.opcode = kLutOpcode,
                                  .row_id = 0,
                                  .offset_s = 0,
                                  .lut_block_id = 100,
                                  .offset_d = 1};

  Block local_compute(&model_);
  local_compute.set(0, 0, 0.0f);
  (void)execute_lut(inst, compute_, /*compute_block_id=*/0, storage_, table,
                    net_);
  // Same-block LUT (id match) would skip the hop; different block pays it.
  const double remote_time = compute_.consumed().time.value();
  Block same(&model_);
  same.set(0, 0, 0.0f);
  (void)execute_lut(inst, same, /*compute_block_id=*/100, storage_, table,
                    net_);
  EXPECT_GT(remote_time, same.consumed().time.value());
}

}  // namespace
}  // namespace wavepim::pim
