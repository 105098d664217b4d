#pragma once

// The paper's look-up-table instruction (§4.3, Fig. 4, Alg. 1) as a test
// oracle: its 64-bit wire format and a block-level executor. The shipped
// library prices a LUT fetch through SinkPricing (mapping/sinks.h); tests
// pin that price against `execute_lut`.

#include <cstdint>
#include <span>

#include "pim/block.h"
#include "pim/interconnect.h"

namespace wavepim::pim {

/// The paper's 64-bit LUT instruction format (Fig. 4):
///   [63:57] opcode  [56:31] row id  [30:26] offset_s
///   [25:5]  LUT block id            [4:0]   offset_d
/// Offsets are 5 bits because a 1024-column row holds 32 FP32 words.
struct LutInstructionFields {
  std::uint8_t opcode = 0;        ///< 7 bits
  std::uint32_t row_id = 0;       ///< 26 bits
  std::uint8_t offset_s = 0;      ///< 5 bits
  std::uint32_t lut_block_id = 0; ///< 21 bits
  std::uint8_t offset_d = 0;      ///< 5 bits

  friend bool operator==(const LutInstructionFields&,
                         const LutInstructionFields&) = default;
};

/// Opcode value that marks LUT instructions on the wire.
inline constexpr std::uint8_t kLutOpcode = 0x4C;  // 'L'

std::uint64_t encode_lut(const LutInstructionFields& f);
LutInstructionFields decode_lut(std::uint64_t word);

/// Derived addresses of Algorithm 1 for a decoded LUT instruction,
/// assuming 1024x1024-bit blocks and 32-bit data.
struct LutAddresses {
  std::uint64_t index_bit_address = 0;    ///< R_1 location
  std::uint64_t content_bit_address = 0;  ///< R_2 location (given index)
  std::uint64_t dest_bit_address = 0;     ///< W_1 location
};

/// Computes R_1/W_1 addresses (content address additionally needs the
/// fetched index; pass it in).
LutAddresses lut_addresses(const LutInstructionFields& f, std::uint32_t index);

/// A look-up table resident in an ordinary memory block (§4.3): contents
/// are produced by the host (e.g. sqrt/inverse of material combinations)
/// and loaded before Flux computation begins.
class LookupTable {
 public:
  /// Binds the table to `block_id` and fills rows with `contents`
  /// (one FP32 value per entry, packed 32 per row).
  LookupTable(std::uint32_t block_id, std::span<const float> contents,
              Block& storage);

  [[nodiscard]] std::uint32_t block_id() const { return block_id_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Value at `index` as stored in the backing block.
  [[nodiscard]] float value_at(std::uint32_t index, const Block& storage) const;

  /// Cost of loading the contents from the host into the block (performed
  /// once, before the computation starts).
  [[nodiscard]] const OpCost& load_cost() const { return load_cost_; }

 private:
  std::uint32_t block_id_;
  std::size_t size_;
  OpCost load_cost_;
};

/// Executes one LUT instruction per Algorithm 1:
///   1. R_1: fetch the 32-bit index from (row_id, offset_s) of `compute`.
///   2. R_2: fetch the content word from the LUT block.
///   3. W_1: write the content to (row_id, offset_d) of `compute`.
/// The inter-block leg (LUT block -> compute block) rides the regular
/// interconnect; `interconnect` prices it.
///
/// Returns the content value; accrues costs into the two blocks.
float execute_lut(const LutInstructionFields& fields, Block& compute,
                  std::uint32_t compute_block_id, Block& lut_storage,
                  const LookupTable& table, const Interconnect& interconnect);

}  // namespace wavepim::pim
