#include "pim/isa.h"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>

#include "common/error.h"
#include "support/lut.h"

namespace wavepim::pim {
namespace {

TEST(LutEncoding, RoundTripsAllFields) {
  const LutInstructionFields f{.opcode = kLutOpcode,
                               .row_id = 12345,
                               .offset_s = 7,
                               .lut_block_id = 54321,
                               .offset_d = 31};
  EXPECT_EQ(decode_lut(encode_lut(f)), f);
}

TEST(LutEncoding, FieldBoundaries) {
  // Max values of every field must round-trip independently.
  LutInstructionFields f{.opcode = 0x7F,
                         .row_id = (1u << 26) - 1,
                         .offset_s = 31,
                         .lut_block_id = (1u << 21) - 1,
                         .offset_d = 31};
  EXPECT_EQ(decode_lut(encode_lut(f)), f);

  f = LutInstructionFields{};  // all zero
  EXPECT_EQ(decode_lut(encode_lut(f)), f);
}

TEST(LutEncoding, OpcodeOccupiesTopBits) {
  const LutInstructionFields f{.opcode = kLutOpcode};
  const std::uint64_t word = encode_lut(f);
  EXPECT_EQ(word >> 57, kLutOpcode);
}

TEST(LutEncoding, RejectsOverflowingFields) {
  LutInstructionFields f;
  f.row_id = 1u << 26;
  EXPECT_THROW((void)encode_lut(f), PreconditionError);
  f = {};
  f.lut_block_id = 1u << 21;
  EXPECT_THROW((void)encode_lut(f), PreconditionError);
}

TEST(LutEncoding, ExhaustiveFieldBoundaryCrossProduct) {
  // Property sweep over every combination of boundary values (0, 1, a
  // mid pattern, max-1, max) in all five fields at once — 5^5 = 3125
  // encodings. Any field that leaks into a neighbour's bit range, or is
  // masked a bit short, breaks a round-trip here.
  const auto boundaries = [](std::uint32_t bits) {
    const std::uint32_t max = (1u << bits) - 1;
    return std::array<std::uint32_t, 5>{0, 1, 0x15555555u & max, max - 1,
                                        max};
  };
  const auto opcodes = boundaries(7);
  const auto row_ids = boundaries(26);
  const auto offsets_s = boundaries(5);
  const auto lut_blocks = boundaries(21);
  const auto offsets_d = boundaries(5);
  for (std::uint32_t opcode : opcodes) {
    for (std::uint32_t row_id : row_ids) {
      for (std::uint32_t offset_s : offsets_s) {
        for (std::uint32_t lut_block : lut_blocks) {
          for (std::uint32_t offset_d : offsets_d) {
            const LutInstructionFields f{
                .opcode = static_cast<std::uint8_t>(opcode),
                .row_id = row_id,
                .offset_s = static_cast<std::uint8_t>(offset_s),
                .lut_block_id = lut_block,
                .offset_d = static_cast<std::uint8_t>(offset_d)};
            ASSERT_EQ(decode_lut(encode_lut(f)), f)
                << "opcode=" << opcode << " row_id=" << row_id
                << " offset_s=" << offset_s << " lut_block=" << lut_block
                << " offset_d=" << offset_d;
          }
        }
      }
    }
  }
}

TEST(LutEncoding, WalkingBitsStayInTheirField) {
  // Each single bit of each field must land exactly at its Fig. 4 wire
  // position (and nowhere else) — stricter than a round-trip, which a
  // consistently-wrong shift pair would still pass.
  const auto expect_single_bit = [](const LutInstructionFields& f,
                                    std::uint32_t wire_bit) {
    ASSERT_EQ(encode_lut(f), 1ull << wire_bit) << "wire bit " << wire_bit;
    ASSERT_EQ(decode_lut(1ull << wire_bit), f) << "wire bit " << wire_bit;
  };
  for (std::uint32_t b = 0; b < 7; ++b) {
    expect_single_bit({.opcode = static_cast<std::uint8_t>(1u << b)}, 57 + b);
  }
  for (std::uint32_t b = 0; b < 26; ++b) {
    expect_single_bit({.row_id = 1u << b}, 31 + b);
  }
  for (std::uint32_t b = 0; b < 5; ++b) {
    expect_single_bit({.offset_s = static_cast<std::uint8_t>(1u << b)},
                      26 + b);
  }
  for (std::uint32_t b = 0; b < 21; ++b) {
    expect_single_bit({.lut_block_id = 1u << b}, 5 + b);
  }
  for (std::uint32_t b = 0; b < 5; ++b) {
    expect_single_bit({.offset_d = static_cast<std::uint8_t>(1u << b)}, b);
  }
}

TEST(LutAddresses, FollowAlgorithm1) {
  // Algorithm 1: index at Row*1024 + Offset_S*32; content at
  // LUTBlock*1024*1024 + index*32; dest at Row*1024 + Offset_D*32.
  const LutInstructionFields f{.opcode = kLutOpcode,
                               .row_id = 3,
                               .offset_s = 2,
                               .lut_block_id = 5,
                               .offset_d = 9};
  const auto a = lut_addresses(f, /*index=*/100);
  EXPECT_EQ(a.index_bit_address, 3u * 1024 + 2 * 32);
  EXPECT_EQ(a.content_bit_address, 5ull * 1024 * 1024 + 100 * 32);
  EXPECT_EQ(a.dest_bit_address, 3u * 1024 + 9 * 32);
}

TEST(Opcode, NamesAreDistinct) {
  EXPECT_STREQ(to_string(Opcode::Fadd), "fadd");
  EXPECT_STREQ(to_string(Opcode::MemCpy), "memcpy");
  EXPECT_STREQ(to_string(Opcode::LutLookup), "lut_lookup");
  EXPECT_STREQ(to_string(Opcode::BroadcastRow), "broadcast_row");
  // The nine opcodes the relocatable assembler emits.
  const std::array emitted = {
      Opcode::BroadcastRow, Opcode::GatherRows, Opcode::Fadd,
      Opcode::Fsub,         Opcode::Fmul,       Opcode::Fscale,
      Opcode::Faxpy,        Opcode::MemCpy,     Opcode::LutLookup};
  std::set<std::string> names;
  for (const Opcode op : emitted) {
    names.insert(to_string(op));
  }
  EXPECT_EQ(names.size(), emitted.size());
}

}  // namespace
}  // namespace wavepim::pim
