#include "support/lut.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "support/block_ops.h"

namespace wavepim::pim {

std::uint64_t encode_lut(const LutInstructionFields& f) {
  WAVEPIM_REQUIRE(f.opcode < (1u << 7), "opcode exceeds 7 bits");
  WAVEPIM_REQUIRE(f.row_id < (1u << 26), "row id exceeds 26 bits");
  WAVEPIM_REQUIRE(f.offset_s < (1u << 5), "offset_s exceeds 5 bits");
  WAVEPIM_REQUIRE(f.lut_block_id < (1u << 21), "lut block id exceeds 21 bits");
  WAVEPIM_REQUIRE(f.offset_d < (1u << 5), "offset_d exceeds 5 bits");
  return (static_cast<std::uint64_t>(f.opcode) << 57) |
         (static_cast<std::uint64_t>(f.row_id) << 31) |
         (static_cast<std::uint64_t>(f.offset_s) << 26) |
         (static_cast<std::uint64_t>(f.lut_block_id) << 5) |
         static_cast<std::uint64_t>(f.offset_d);
}

LutInstructionFields decode_lut(std::uint64_t word) {
  LutInstructionFields f;
  f.opcode = static_cast<std::uint8_t>((word >> 57) & 0x7F);
  f.row_id = static_cast<std::uint32_t>((word >> 31) & 0x3FFFFFF);
  f.offset_s = static_cast<std::uint8_t>((word >> 26) & 0x1F);
  f.lut_block_id = static_cast<std::uint32_t>((word >> 5) & 0x1FFFFF);
  f.offset_d = static_cast<std::uint8_t>(word & 0x1F);
  return f;
}

LutAddresses lut_addresses(const LutInstructionFields& f,
                           std::uint32_t index) {
  // Algorithm 1 with 1024-bit rows and 32-bit words.
  LutAddresses a;
  a.index_bit_address =
      static_cast<std::uint64_t>(f.row_id) * 1024 + f.offset_s * 32ull;
  a.content_bit_address =
      static_cast<std::uint64_t>(f.lut_block_id) * 1024 * 1024 +
      static_cast<std::uint64_t>(index) * 32;
  a.dest_bit_address =
      static_cast<std::uint64_t>(f.row_id) * 1024 + f.offset_d * 32ull;
  return a;
}

LookupTable::LookupTable(std::uint32_t block_id,
                         std::span<const float> contents, Block& storage)
    : block_id_(block_id), size_(contents.size()) {
  WAVEPIM_REQUIRE(!contents.empty(), "LUT must have at least one entry");
  WAVEPIM_REQUIRE(contents.size() <=
                      static_cast<std::size_t>(Block::kRows) * Block::kWords,
                  "LUT exceeds one memory block");
  storage.reset_cost();
  for (std::size_t i = 0; i < contents.size(); i += Block::kWords) {
    const std::size_t n = std::min<std::size_t>(Block::kWords,
                                                contents.size() - i);
    write_row(storage, static_cast<std::uint32_t>(i / Block::kWords), 0,
              contents.subspan(i, n));
  }
  load_cost_ = storage.consumed();
}

float LookupTable::value_at(std::uint32_t index, const Block& storage) const {
  WAVEPIM_REQUIRE(index < size_, "LUT index out of range");
  return storage.at(index / Block::kWords, index % Block::kWords);
}

float execute_lut(const LutInstructionFields& fields, Block& compute,
                  std::uint32_t compute_block_id, Block& lut_storage,
                  const LookupTable& table, const Interconnect& interconnect) {
  WAVEPIM_REQUIRE(fields.lut_block_id == table.block_id(),
                  "instruction does not target this table");

  // R_1: fetch the 32-bit index from the compute block.
  float index_word = 0.0f;
  read_row(compute, fields.row_id, fields.offset_s, {&index_word, 1});
  WAVEPIM_REQUIRE(index_word >= 0.0f,
                  "LUT index generated in-block must be non-negative");
  const auto index = static_cast<std::uint32_t>(std::lround(index_word));

  // R_2: fetch the content from the LUT block.
  float content = 0.0f;
  read_row(lut_storage, index / Block::kWords, index % Block::kWords,
           {&content, 1});

  // Inter-block leg: one word from the LUT block to the compute block.
  const Transfer hop{.src_block = table.block_id(),
                     .dst_block = compute_block_id,
                     .words = 1};
  if (hop.src_block != hop.dst_block) {
    compute.charge({interconnect.isolated_latency(hop),
                    interconnect.transfer_energy(hop)});
  }

  // W_1: store the content at the destination offset.
  write_row(compute, fields.row_id, fields.offset_d, {&content, 1});
  return content;
}

}  // namespace wavepim::pim
