#include "support/bitserial.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "pim/params.h"

namespace wavepim::pim {
namespace {

TEST(NorMachine, GatesComputeTruthTables) {
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      NorMachine m;
      const auto ca = m.alloc(a != 0);
      const auto cb = m.alloc(b != 0);
      EXPECT_EQ(m.read(m.nor({ca, cb})), !(a || b));
      EXPECT_EQ(m.read(m.not_gate(ca)), !a);
      EXPECT_EQ(m.read(m.or_gate(ca, cb)), (a || b));
      EXPECT_EQ(m.read(m.and_gate(ca, cb)), (a && b));
      EXPECT_EQ(m.read(m.xor_gate(ca, cb)), (a != b));
    }
  }
}

TEST(NorMachine, GateStepCounts) {
  NorMachine m;
  const auto a = m.alloc(true);
  const auto b = m.alloc(false);
  m.reset_steps();
  (void)m.not_gate(a);
  EXPECT_EQ(m.steps(), 1u);
  m.reset_steps();
  (void)m.or_gate(a, b);
  EXPECT_EQ(m.steps(), 2u);
  m.reset_steps();
  (void)m.and_gate(a, b);
  EXPECT_EQ(m.steps(), 3u);
  m.reset_steps();
  (void)m.xor_gate(a, b);
  EXPECT_EQ(m.steps(), 5u);
}

TEST(NorMachine, BitVectorRoundTrip) {
  NorMachine m;
  const auto v = load_bits(m, 0xDEADBEEFu, 32);
  EXPECT_EQ(read_bits(m, v), 0xDEADBEEFu);
  EXPECT_THROW((void)load_bits(m, 1, 0), PreconditionError);
}

TEST(NorAdder, ExhaustiveFourBit) {
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      NorMachine m;
      const auto va = load_bits(m, a, 4);
      const auto vb = load_bits(m, b, 4);
      const auto sum = nor_add(m, va, vb);
      EXPECT_EQ(read_bits(m, sum), (a + b) & 0xF) << a << "+" << b;
    }
  }
}

TEST(NorAdder, RandomThirtyTwoBit) {
  Rng rng(2026);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t a = rng.next_u64() & 0xFFFFFFFFull;
    const std::uint64_t b = rng.next_u64() & 0xFFFFFFFFull;
    NorMachine m;
    const auto sum = nor_add(m, load_bits(m, a, 32), load_bits(m, b, 32));
    EXPECT_EQ(read_bits(m, sum), (a + b) & 0xFFFFFFFFull);
  }
}

TEST(NorAdder, StepCountLinearInWidth) {
  auto steps_for = [](int bits) {
    NorMachine m;
    const auto a = load_bits(m, 0, bits);
    const auto b = load_bits(m, 0, bits);
    m.reset_steps();
    (void)nor_add(m, a, b);
    return m.steps();
  };
  const auto s8 = steps_for(8);
  const auto s16 = steps_for(16);
  const auto s32 = steps_for(32);
  EXPECT_EQ(s16, 2 * s8);
  EXPECT_EQ(s32, 2 * s16);
  // Per-bit cost: optimised MAGIC adders reach ~9-13 NOR steps; this
  // textbook gate mapping lands at 18 (2 XOR + 2 AND + OR).
  EXPECT_GE(s32 / 32, 9u);
  EXPECT_LE(s32 / 32, 20u);
}

TEST(NorMultiplier, ExhaustiveFourBit) {
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      NorMachine m;
      const auto prod = nor_mul(m, load_bits(m, a, 4), load_bits(m, b, 4));
      EXPECT_EQ(read_bits(m, prod), a * b) << a << "*" << b;
    }
  }
}

TEST(NorMultiplier, RandomSixteenBit) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t a = rng.next_u64() & 0xFFFFull;
    const std::uint64_t b = rng.next_u64() & 0xFFFFull;
    NorMachine m;
    const auto prod = nor_mul(m, load_bits(m, a, 16), load_bits(m, b, 16));
    EXPECT_EQ(read_bits(m, prod), a * b);
  }
}

TEST(NorMultiplier, StepCountQuadraticInWidth) {
  auto steps_for = [](int bits) {
    NorMachine m;
    const auto a = load_bits(m, 0, bits);
    const auto b = load_bits(m, 0, bits);
    m.reset_steps();
    (void)nor_mul(m, a, b);
    return m.steps();
  };
  const auto s8 = steps_for(8);
  const auto s16 = steps_for(16);
  EXPECT_GT(s16, 3 * s8);  // clearly super-linear
  EXPECT_LT(s16, 5 * s8);  // ~quadratic, not worse
}

TEST(NorCalibration, ArithLatencyConstantsAreConsistent) {
  // The word-level FP32 costs (ArithLatency) must sit above the raw
  // integer NOR costs measured here: an FP32 add is mantissa alignment +
  // a 24-bit integer add + normalisation, an FP32 multiply wraps a 24-bit
  // integer multiply.
  NorMachine m;
  const auto a24 = load_bits(m, 0, 24);
  const auto b24 = load_bits(m, 0, 24);
  m.reset_steps();
  (void)nor_add(m, a24, b24);
  const auto int24_add = m.steps();

  NorMachine m2;
  const auto c24 = load_bits(m2, 0, 24);
  const auto d24 = load_bits(m2, 0, 24);
  m2.reset_steps();
  (void)nor_mul(m2, c24, d24);
  const auto int24_mul = m2.steps();

  const ArithLatency lat;
  // FP32 add (1200 cycles) = mantissa alignment + one 24-bit integer add
  // + normalisation: above the bare integer add, below a handful of them.
  EXPECT_GT(lat.fadd_cycles, int24_add);
  EXPECT_LT(lat.fadd_cycles, 4 * int24_add + 600);
  // FP32 multiply (3000 cycles, calibrated to the paper's Table 2 peak)
  // implies an optimised in-crossbar multiplier: well below this naive
  // shift-add gate mapping, but still costlier than any single add.
  EXPECT_LT(static_cast<std::uint64_t>(lat.fmul_cycles), int24_mul);
  EXPECT_GT(static_cast<std::uint64_t>(lat.fmul_cycles), int24_add);
  // Multiplication is super-linear in both models.
  const double word_ratio =
      static_cast<double>(lat.fmul_cycles) / lat.fadd_cycles;
  const double gate_ratio = static_cast<double>(int24_mul) / int24_add;
  EXPECT_GT(word_ratio, 2.0);
  EXPECT_GT(gate_ratio, word_ratio);  // naive gates pay the full N^2
}


// --- Boundary fuzz (word-tier PR) ----------------------------------------
// The word tier's claim that FP32 words are a faithful abstraction of
// the bit-serial machine rests on the integer substrate being exact at
// the carry boundaries. Sweep the adder and multiplier across the
// patterns where carry chains and partial products saturate: 0, all
// ones, the sign bit, single set bits, and random values paired with
// each.

TEST(NorAdder, BoundaryPatternFuzz) {
  const std::uint64_t boundary[] = {0ull, 1ull, 0x7FFFFFFFull, 0x80000000ull,
                                    0xFFFFFFFFull, 0x55555555ull,
                                    0xAAAAAAAAull};
  Rng rng(0xB0DAu);
  for (const std::uint64_t a : boundary) {
    for (const std::uint64_t b : boundary) {
      NorMachine m;
      const auto sum = nor_add(m, load_bits(m, a, 32), load_bits(m, b, 32));
      EXPECT_EQ(read_bits(m, sum), (a + b) & 0xFFFFFFFFull)
          << a << "+" << b;
    }
    // Each boundary against random partners: mixed carry chains.
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t b = rng.next_u64() & 0xFFFFFFFFull;
      NorMachine m;
      const auto sum = nor_add(m, load_bits(m, a, 32), load_bits(m, b, 32));
      EXPECT_EQ(read_bits(m, sum), (a + b) & 0xFFFFFFFFull)
          << a << "+" << b;
    }
  }
}

TEST(NorMultiplier, BoundaryPatternFuzz) {
  const std::uint64_t boundary[] = {0ull, 1ull, 2ull, 0x7FFFull, 0x8000ull,
                                    0xFFFFull};
  Rng rng(0xF00Du);
  for (const std::uint64_t a : boundary) {
    for (const std::uint64_t b : boundary) {
      NorMachine m;
      const auto prod = nor_mul(m, load_bits(m, a, 16), load_bits(m, b, 16));
      EXPECT_EQ(read_bits(m, prod), a * b) << a << "*" << b;
    }
    for (int i = 0; i < 2; ++i) {
      const std::uint64_t b = rng.next_u64() & 0xFFFFull;
      NorMachine m;
      const auto prod = nor_mul(m, load_bits(m, a, 16), load_bits(m, b, 16));
      EXPECT_EQ(read_bits(m, prod), a * b) << a << "*" << b;
    }
  }
}

}  // namespace
}  // namespace wavepim::pim
