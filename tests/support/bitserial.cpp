#include "support/bitserial.h"

#include "common/error.h"

namespace wavepim::pim {

NorMachine::Cell NorMachine::alloc(bool value) {
  cells_.push_back(value);
  return static_cast<Cell>(cells_.size() - 1);
}

bool NorMachine::read(Cell c) const {
  WAVEPIM_REQUIRE(c < cells_.size(), "cell out of range");
  return cells_[c];
}

void NorMachine::write(Cell c, bool value) {
  WAVEPIM_REQUIRE(c < cells_.size(), "cell out of range");
  cells_[c] = value;
}

NorMachine::Cell NorMachine::nor(const std::vector<Cell>& inputs) {
  WAVEPIM_REQUIRE(!inputs.empty(), "NOR needs at least one input");
  bool any = false;
  for (Cell c : inputs) {
    any = any || read(c);
  }
  ++steps_;
  return alloc(!any);
}

NorMachine::Cell NorMachine::not_gate(Cell a) { return nor({a}); }

NorMachine::Cell NorMachine::or_gate(Cell a, Cell b) {
  return not_gate(nor({a, b}));
}

NorMachine::Cell NorMachine::and_gate(Cell a, Cell b) {
  return nor({not_gate(a), not_gate(b)});
}

NorMachine::Cell NorMachine::xor_gate(Cell a, Cell b) {
  // XOR(a,b) = NOR(NOR(a,b), AND(a,b)): 1 + 3 + 1 = 5 steps.
  const Cell nab = nor({a, b});
  const Cell ab = and_gate(a, b);
  return nor({nab, ab});
}

BitVector load_bits(NorMachine& m, std::uint64_t value, int bits) {
  WAVEPIM_REQUIRE(bits >= 1 && bits <= 64, "width out of range");
  BitVector v(static_cast<std::size_t>(bits));
  for (int i = 0; i < bits; ++i) {
    v[static_cast<std::size_t>(i)] = m.alloc((value >> i) & 1u);
  }
  return v;
}

std::uint64_t read_bits(const NorMachine& m, const BitVector& v) {
  WAVEPIM_REQUIRE(v.size() <= 64, "width out of range");
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    value |= static_cast<std::uint64_t>(m.read(v[i])) << i;
  }
  return value;
}

BitVector nor_add(NorMachine& m, const BitVector& a, const BitVector& b) {
  WAVEPIM_REQUIRE(a.size() == b.size() && !a.empty(),
                  "operand widths must match");
  BitVector sum(a.size());
  NorMachine::Cell carry = m.alloc(false);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Full adder: s = a ^ b ^ c; c' = maj(a, b, c).
    const auto axb = m.xor_gate(a[i], b[i]);
    sum[i] = m.xor_gate(axb, carry);
    const auto ab = m.and_gate(a[i], b[i]);
    const auto axb_c = m.and_gate(axb, carry);
    carry = m.or_gate(ab, axb_c);
  }
  return sum;
}

BitVector nor_mul(NorMachine& m, const BitVector& a, const BitVector& b) {
  WAVEPIM_REQUIRE(a.size() == b.size() && !a.empty(),
                  "operand widths must match");
  const std::size_t n = a.size();
  // Accumulator of 2N bits, initialised to zero.
  BitVector acc(2 * n);
  for (auto& c : acc) {
    c = m.alloc(false);
  }
  for (std::size_t j = 0; j < n; ++j) {
    // Partial product: (a AND b_j) shifted by j, padded to 2N bits.
    BitVector partial(2 * n);
    for (std::size_t i = 0; i < 2 * n; ++i) {
      if (i >= j && i - j < n) {
        partial[i] = m.and_gate(a[i - j], b[j]);
      } else {
        partial[i] = m.alloc(false);
      }
    }
    acc = nor_add(m, acc, partial);
  }
  return acc;
}

}  // namespace wavepim::pim
