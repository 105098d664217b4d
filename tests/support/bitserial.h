#pragma once

#include <cstdint>
#include <vector>

namespace wavepim::pim {

/// Gate-level model of MAGIC-style in-crossbar logic (§2.3): memristor
/// cells hold bits, and the only compute primitive is an n-input NOR
/// executed in one crossbar step. Building arithmetic from this machine
/// grounds the ArithLatency cycle constants in first principles: every
/// adder/multiplier below reports exactly how many sequential NOR steps
/// it needed.
///
/// (The functional Block model computes on FP32 words for speed; this
/// machine is the bit-true substrate those word-level costs abstract. It
/// is a test oracle: `NorCalibration` bounds the ArithLatency constants
/// by its step counts.)
class NorMachine {
 public:
  using Cell = std::uint32_t;

  /// Allocates a fresh cell initialised to `value` (memristor SET/RESET;
  /// initialisation is not a NOR step).
  Cell alloc(bool value = false);

  [[nodiscard]] bool read(Cell c) const;
  void write(Cell c, bool value);

  /// One crossbar NOR step: dst = NOR(inputs...). Counts one step.
  Cell nor(const std::vector<Cell>& inputs);

  /// Derived gates (each built only from NOR steps).
  Cell not_gate(Cell a);            // 1 step
  Cell or_gate(Cell a, Cell b);     // 2 steps
  Cell and_gate(Cell a, Cell b);    // 3 steps
  Cell xor_gate(Cell a, Cell b);    // 5 steps

  /// Sequential NOR steps executed so far.
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  void reset_steps() { steps_ = 0; }

  [[nodiscard]] std::size_t num_cells() const { return cells_.size(); }

 private:
  std::vector<bool> cells_;
  std::uint64_t steps_ = 0;
};

/// An N-bit unsigned integer as a little-endian cell vector.
using BitVector = std::vector<NorMachine::Cell>;

/// Loads an integer into freshly allocated cells.
BitVector load_bits(NorMachine& m, std::uint64_t value, int bits);

/// Reads a bit vector back as an integer.
std::uint64_t read_bits(const NorMachine& m, const BitVector& v);

/// Ripple-carry adder built from NOR full adders; returns bits+carry
/// truncated to the input width. The classic MAGIC mapping needs ~9-12
/// NOR steps per bit.
BitVector nor_add(NorMachine& m, const BitVector& a, const BitVector& b);

/// Shift-and-add multiplier (returns 2N bits): the O(N^2) NOR cost that
/// makes in-memory multiplication ~2.5x the cost of addition per §2.3's
/// "latency ... may not be as efficient as other CMOS designs".
BitVector nor_mul(NorMachine& m, const BitVector& a, const BitVector& b);

}  // namespace wavepim::pim
