#include "pim/isa.h"

namespace wavepim::pim {

const char* to_string(Opcode op) {
  switch (op) {
    case Opcode::Nop:
      return "nop";
    case Opcode::BroadcastRow:
      return "broadcast_row";
    case Opcode::GatherRows:
      return "gather_rows";
    case Opcode::CopyCols:
      return "copy_cols";
    case Opcode::Fadd:
      return "fadd";
    case Opcode::Fsub:
      return "fsub";
    case Opcode::Fmul:
      return "fmul";
    case Opcode::Fscale:
      return "fscale";
    case Opcode::Faxpy:
      return "faxpy";
    case Opcode::MemCpy:
      return "memcpy";
    case Opcode::LutLookup:
      return "lut_lookup";
  }
  return "?";
}

}  // namespace wavepim::pim
