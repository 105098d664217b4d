#pragma once

#include <cstdint>

#include "common/units.h"
#include "pim/params.h"

namespace wavepim::pim {

/// Opcodes of the ISA-based PIM system (§4.1). Instructions are sent from
/// the host, pre-processed by the chip decoder, and expanded into
/// micro-sequences for the target blocks. The values are part of every
/// cached stream's hash, so they stay fixed and retired opcodes leave gaps.
/// `Nop` is an empty instruction's opcode; `CopyCols` is priced (Table 4)
/// but not emitted.
enum class Opcode : std::uint8_t {
  Nop = 0,
  BroadcastRow = 3,  ///< replicate one row's words into a row range
  GatherRows = 4,    ///< row permutation through the row buffer
  CopyCols = 5,      ///< row-parallel column copy within a block
  Fadd = 6,          ///< row-parallel FP32 add (bit-serial NOR)
  Fsub = 7,
  Fmul = 8,
  Fscale = 9,        ///< multiply column by an immediate constant
  Faxpy = 10,        ///< dst = a*dst + imm*src (integration update)
  MemCpy = 11,       ///< inter-block transfer via H-tree/Bus
  LutLookup = 12,    ///< Fig. 4 look-up-table instruction
};

const char* to_string(Opcode op);

/// A decoded (typed) PIM instruction. The mapping layer's program cache
/// lowers every kernel into streams of these (mapping/program_cache.h).
struct Instruction {
  Opcode op = Opcode::Nop;
  std::uint32_t block = 0;       ///< target block (group in a cached stream)
  std::uint32_t row = 0;         ///< first row
  std::uint32_t row_count = 1;   ///< rows covered (parallel for arith)
  std::uint8_t col_a = 0;        ///< word-column operand A / source
  std::uint8_t col_b = 0;        ///< word-column operand B
  std::uint8_t col_dst = 0;      ///< word-column destination
  std::uint32_t word_count = 1;  ///< words moved (copies / memcpy)
  std::uint32_t peer_block = 0;  ///< memcpy destination group
  float imm = 0.0f;              ///< immediate for Fscale / Faxpy
  float imm2 = 0.0f;             ///< second immediate (Faxpy)
  /// Micro-sequence side-table references (row permutations / constant
  /// vectors); UINT32_MAX when unused. See mapping::ProgramArena.
  std::uint32_t table_a = 0xFFFFFFFFu;
  std::uint32_t table_b = 0xFFFFFFFFu;

  static constexpr std::uint32_t kNoTable = 0xFFFFFFFFu;

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

}  // namespace wavepim::pim
