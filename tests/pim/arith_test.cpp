#include "pim/arith.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "pim/block.h"
#include "pim/word.h"
#include "support/block_ops.h"

namespace wavepim::pim {
namespace {

TEST(ArithModel, CyclesMatchConfiguration) {
  const ArithModel m;
  EXPECT_EQ(m.cycles(Opcode::Fadd), 1200u);
  EXPECT_EQ(m.cycles(Opcode::Fmul), 3000u);
  EXPECT_EQ(m.cycles(Opcode::CopyCols), 64u);
  // Faxpy = two multiplies + one add.
  EXPECT_EQ(m.cycles(Opcode::Faxpy), 3000u + 3000u + 1200u);
}

TEST(ArithModel, TimeIsIndependentOfRowCount) {
  // Row-parallel: one row and a thousand rows take the same time.
  const ArithModel m;
  EXPECT_EQ(m.op_cost(Opcode::Fadd, 1).time, m.op_cost(Opcode::Fadd, 1000).time);
}

TEST(ArithModel, EnergyScalesLinearlyWithRows) {
  const ArithModel m;
  const Joules e1 = m.op_energy(Opcode::Fmul, 1);
  const Joules e512 = m.op_energy(Opcode::Fmul, 512);
  EXPECT_NEAR(e512.value() / e1.value(), 512.0, 1e-9);
}

TEST(ArithModel, MulCostsMoreThanAdd) {
  const ArithModel m;
  EXPECT_GT(m.op_time(Opcode::Fmul), m.op_time(Opcode::Fadd));
  EXPECT_GT(m.op_energy(Opcode::Fmul, 100), m.op_energy(Opcode::Fadd, 100));
}

TEST(ArithModel, AddLatencyMatchesNorTiming) {
  const ArithModel m;
  EXPECT_NEAR(m.op_time(Opcode::Fadd).value(), 1200 * 1.1e-9, 1e-12);
}

TEST(ArithModel, NonBlockOpsAreRejected) {
  const ArithModel m;
  EXPECT_THROW((void)m.cycles(Opcode::MemCpy), InvariantError);
  EXPECT_THROW((void)m.cycles(Opcode::GatherRows), InvariantError);
  EXPECT_THROW((void)m.cycles(Opcode::LutLookup), InvariantError);
}

TEST(OpCost, Accumulates) {
  OpCost a{seconds(1.0), joules(2.0)};
  const OpCost b{seconds(0.5), joules(0.25)};
  a += b;
  EXPECT_DOUBLE_EQ(a.time.value(), 1.5);
  EXPECT_DOUBLE_EQ(a.energy.value(), 2.25);
  const OpCost c = a + b;
  EXPECT_DOUBLE_EQ(c.time.value(), 2.0);
}


// --- Differential fuzz: Block scalar arithmetic vs the word kernels -------
//
// The word tier replaces the scalar block ops (the oracle's
// arith/fscale/faxpy/gather_rows in support/block_ops.h) with the
// vectorizable kernels of pim/word.h. Its whole correctness
// claim is that each kernel computes the *same IEEE operation bit for
// bit* — including every special-value case the solver can produce.
// These sweeps feed both paths seeded-random operands laced with +-0,
// denormals, infinities, NaNs and values that overflow under add/mul,
// then compare raw bit patterns word by word.

namespace {

/// One fuzz operand: mostly ordinary magnitudes, with a deliberate tail
/// of IEEE edge cases (in the word tier these flow through AVX lanes,
/// which must round, propagate and saturate exactly like scalar code).
float fuzz_operand(Rng& rng) {
  switch (rng.next_below(10)) {
    case 0:
      return 0.0f;
    case 1:
      return -0.0f;
    case 2:  // subnormal magnitudes
      return std::ldexp(rng.next_float(-1.0f, 1.0f), -135);
    case 3:
      return std::numeric_limits<float>::infinity();
    case 4:
      return -std::numeric_limits<float>::infinity();
    case 5:
      return std::numeric_limits<float>::quiet_NaN();
    case 6:  // large: add/mul overflow to inf, exercising rounding at the top
      return rng.next_float(1.0e38f, 3.4e38f) *
             (rng.next_below(2) == 0 ? 1.0f : -1.0f);
    case 7:  // tiny: products underflow through the denormal range
      return std::ldexp(rng.next_float(-1.0f, 1.0f), -70);
    default:
      return rng.next_float(-8.0f, 8.0f);
  }
}

std::vector<float> fuzz_column(Rng& rng, std::size_t n) {
  std::vector<float> out(n);
  for (auto& v : out) {
    v = fuzz_operand(rng);
  }
  return out;
}

/// Bitwise equality, except that any NaN matches any NaN: IEEE leaves
/// the sign/payload of a NaN produced (or selected between two NaN
/// operands) by an operation unspecified, and the compiler may commute
/// commutative operands differently across the two code paths. Every
/// numeric bit pattern — signed zeros, denormals, infinities, rounding
/// at overflow — is still compared exactly.
::testing::AssertionResult bits_equal(std::span<const float> got,
                                      std::span<const float> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint32_t g = 0;
    std::uint32_t w = 0;
    std::memcpy(&g, &got[i], sizeof(g));
    std::memcpy(&w, &want[i], sizeof(w));
    if (std::isnan(got[i]) && std::isnan(want[i])) {
      continue;
    }
    if (g != w) {
      return ::testing::AssertionFailure()
             << "word " << i << ": got 0x" << std::hex << g << " want 0x"
             << w << std::dec << " (" << got[i] << " vs " << want[i] << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

TEST(WordKernelFuzz, BinaryOpsBitIdenticalToBlockArith) {
  static const ArithModel model;
  constexpr std::uint32_t kRows = Block::kRows;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 0x9E37u);
    const auto a = fuzz_column(rng, kRows);
    const auto b = fuzz_column(rng, kRows);
    Block block(&model);
    block.load_column(0, a);
    block.load_column(1, b);
    arith(block, Opcode::Fadd, 0, 1, 2, 0, kRows);

    std::vector<float> dst(kRows, 0.0f);
    word::add(dst.data(), a.data(), b.data(), kRows);
    EXPECT_TRUE(bits_equal(dst, block.column(2))) << "seed " << seed;
  }
}

TEST(WordKernelFuzz, ScaleAndAxpyBitIdenticalToBlockForms) {
  static const ArithModel model;
  constexpr std::uint32_t kRows = Block::kRows;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 0xB5297u);
    const auto src = fuzz_column(rng, kRows);
    const auto acc = fuzz_column(rng, kRows);
    const float c = fuzz_operand(rng);
    const float a = fuzz_operand(rng);

    Block block(&model);
    block.load_column(0, src);
    fscale(block, 0, 1, c, 0, kRows);
    std::vector<float> dst(kRows, 0.0f);
    word::scale(dst.data(), src.data(), c, kRows);
    EXPECT_TRUE(bits_equal(dst, block.column(1))) << "scale seed " << seed;

    // Faxpy reaches the word kernels only as the first half of
    // axpy_pair, whose d1 must match faxpy on its own.
    block.load_column(2, acc);
    faxpy(block, 2, 0, a, c, 0, kRows);
    std::vector<float> axpy_dst = acc;
    std::vector<float> second = acc;
    word::axpy_pair(axpy_dst.data(), src.data(), second.data(), a, c, 1.0f,
                    0.0f, kRows);
    EXPECT_TRUE(bits_equal(axpy_dst, block.column(2)))
        << "axpy seed " << seed;
  }
}

TEST(WordKernelFuzz, MovementKernelsPreserveBitPatternsAndWriteOrder) {
  // word::move is the one unfused movement kernel: gather_rows and
  // scatter_rows are both special cases of it.
  static const ArithModel model;
  constexpr std::uint32_t kRows = Block::kRows;
  Rng rng(0xC0FFEEu);
  const auto src = fuzz_column(rng, kRows);
  std::vector<std::uint32_t> iota(64);
  for (std::uint32_t i = 0; i < iota.size(); ++i) {
    iota[i] = i;
  }

  // Gather-shaped move with repeated sources: NaN payloads must move
  // verbatim.
  std::vector<std::uint32_t> rows;
  for (std::uint32_t i = 0; i < 64; ++i) {
    rows.push_back(static_cast<std::uint32_t>(rng.next_below(kRows)));
  }
  Block block(&model);
  block.load_column(0, src);
  gather_rows(block, rows, 0, 0, 1);
  std::vector<float> dst(kRows, 0.0f);
  word::move(dst.data(), iota.data(), src.data(), rows.data(),
             static_cast<std::uint32_t>(rows.size()));
  EXPECT_TRUE(bits_equal(std::span(dst).first(rows.size()),
                         block.column(1).first(rows.size())));

  // Scatter-shaped move with repeated destination rows: forward order,
  // last write wins — exactly scatter_rows semantics.
  std::vector<std::uint32_t> dup_rows = {5, 9, 5, 11, 9, 5};
  const std::vector<float> values = {
      1.0f, std::numeric_limits<float>::quiet_NaN(), -0.0f, 2.5f,
      std::numeric_limits<float>::infinity(), 7.0f};
  block.load_column(3, src);
  scatter_rows(block, dup_rows, 3, values, 4);
  std::vector<float> sdst = src;
  word::move(sdst.data(), dup_rows.data(), values.data(), iota.data(),
             static_cast<std::uint32_t>(dup_rows.size()));
  EXPECT_TRUE(bits_equal(sdst, block.column(3)));
}

// --- Differential fuzz: fused kernels vs their unfused sequences ----------
//
// The fusion peephole (WordPlan::fuse_stream) replaces op pairs, chains
// and gather+consume sequences with the fused kernels below. The
// correctness claim is bit-identity with the unfused op sequence — run
// through the scalar block ops the compiled tier executes — on every
// surviving column, including when the dead-store pass passes
// store_mid/store_g = false, in which case the scratch column must be
// left byte-for-byte untouched while the primary results stay identical.
// Indexed shapes start every column from sentinel bits, so rows outside
// the shape must come back untouched. Operands carry the same IEEE
// edge-case mix as the basic-kernel sweeps.

namespace {

/// A duplicate-free row subset (the plan only fuses indexed shapes after
/// proving distinctness): Fisher-Yates over [0, kRows), first n taken.
std::vector<std::uint32_t> distinct_rows(Rng& rng, std::uint32_t total,
                                         std::uint32_t n) {
  std::vector<std::uint32_t> all(total);
  for (std::uint32_t i = 0; i < total; ++i) {
    all[i] = i;
  }
  for (std::uint32_t i = total - 1; i > 0; --i) {
    std::swap(all[i], all[rng.next_below(i + 1)]);
  }
  all.resize(n);
  return all;
}

/// Loads `cols` into columns 0, 1, ... of `block`.
void load_columns(Block& block,
                  std::initializer_list<const std::vector<float>*> cols) {
  std::uint32_t c = 0;
  for (const auto* col : cols) {
    block.load_column(c++, *col);
  }
}

}  // namespace

TEST(FusedKernelFuzz, ScaleAddMatchesUnfusedSequenceAllShapes) {
  static const ArithModel model;
  constexpr std::uint32_t kRows = Block::kRows;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0x85EBCAu);
    const auto a = fuzz_column(rng, kRows);
    const auto b = fuzz_column(rng, kRows);
    const auto sentinel = fuzz_column(rng, kRows);
    const float c = fuzz_operand(rng);

    // Reference columns: 0 = a, 1 = b, 2 = mid, 3 = dst. Contiguous:
    // Fscale into mid, Fadd into dst.
    Block ref(&model);
    load_columns(ref, {&a, &b, &sentinel, &sentinel});
    fscale(ref, 0, 2, c, 0, kRows);
    arith(ref, Opcode::Fadd, 1, 2, 3, 0, kRows);

    std::vector<float> mid = sentinel;
    std::vector<float> dst = sentinel;
    word::scale_add(dst.data(), mid.data(), a.data(), b.data(), c, kRows);
    EXPECT_TRUE(bits_equal(dst, ref.column(3))) << "contig dst seed " << seed;
    EXPECT_TRUE(bits_equal(mid, ref.column(2))) << "contig mid seed " << seed;

    // store_mid = false: dst identical, scratch column untouched.
    std::vector<float> mid_off = sentinel;
    std::vector<float> dst_off = sentinel;
    word::scale_add(dst_off.data(), mid_off.data(), a.data(), b.data(), c,
                    kRows, /*store_mid=*/false);
    EXPECT_TRUE(bits_equal(dst_off, ref.column(3)))
        << "elided dst seed " << seed;
    EXPECT_TRUE(bits_equal(mid_off, sentinel)) << "elided mid seed " << seed;

    // Indexed over a duplicate-free row list.
    const auto rows = distinct_rows(rng, kRows, 48);
    Block iref(&model);
    load_columns(iref, {&a, &b, &sentinel, &sentinel});
    fscale_rows(iref, 0, 2, c, rows);
    arith_rows(iref, Opcode::Fadd, 1, 2, 3, rows);
    std::vector<float> imid = sentinel;
    std::vector<float> idst = sentinel;
    word::scale_add_indexed(idst.data(), imid.data(), a.data(), b.data(), c,
                            rows.data(),
                            static_cast<std::uint32_t>(rows.size()));
    EXPECT_TRUE(bits_equal(idst, iref.column(3))) << "indexed dst " << seed;
    EXPECT_TRUE(bits_equal(imid, iref.column(2))) << "indexed mid " << seed;
  }
}

TEST(FusedKernelFuzz, AxpyPairMatchesSequentialAxpys) {
  static const ArithModel model;
  constexpr std::uint32_t kRows = Block::kRows;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0x27D4EBu);
    const auto s1 = fuzz_column(rng, kRows);
    const auto d1_init = fuzz_column(rng, kRows);
    const auto d2_init = fuzz_column(rng, kRows);
    const float a1 = fuzz_operand(rng);
    const float c1 = fuzz_operand(rng);
    const float a2 = fuzz_operand(rng);
    const float c2 = fuzz_operand(rng);

    // Reference columns: 0 = s1, 1 = d1, 2 = d2.
    Block ref(&model);
    load_columns(ref, {&s1, &d1_init, &d2_init});
    faxpy(ref, 1, 0, a1, c1, 0, kRows);
    faxpy(ref, 2, 1, a2, c2, 0, kRows);

    std::vector<float> d1 = d1_init;
    std::vector<float> d2 = d2_init;
    word::axpy_pair(d1.data(), s1.data(), d2.data(), a1, c1, a2, c2, kRows);
    EXPECT_TRUE(bits_equal(d1, ref.column(1))) << "d1 seed " << seed;
    EXPECT_TRUE(bits_equal(d2, ref.column(2))) << "d2 seed " << seed;
  }
}

namespace {

/// Fuzzed chain operands: k source columns with one immediate each per
/// accumulator, an initial accumulator per chain and a sentinel column.
struct ChainCase {
  std::uint32_t k = 0;
  std::vector<std::vector<float>> src_cols;
  std::vector<const float*> srcs;
  std::vector<float> imms1;
  std::vector<float> imms2;
  std::vector<float> acc1;
  std::vector<float> acc2;
  std::vector<float> sentinel;

  ChainCase(Rng& rng, std::uint32_t rows) {
    k = 2 + static_cast<std::uint32_t>(rng.next_below(5));
    for (std::uint32_t j = 0; j < k; ++j) {
      src_cols.push_back(fuzz_column(rng, rows));
      imms1.push_back(fuzz_operand(rng));
      imms2.push_back(fuzz_operand(rng));
    }
    for (const auto& col : src_cols) {
      srcs.push_back(col.data());
    }
    acc1 = fuzz_column(rng, rows);
    acc2 = fuzz_column(rng, rows);
    sentinel = fuzz_column(rng, rows);
  }

  /// A Block holding the sources in columns [0, k), then acc1, acc2
  /// and a sentinel scratch column (k, k + 1, k + 2).
  void load(Block& block) const {
    for (std::uint32_t j = 0; j < k; ++j) {
      block.load_column(j, src_cols[j]);
    }
    block.load_column(k, acc1);
    block.load_column(k + 1, acc2);
    block.load_column(k + 2, sentinel);
  }

  /// The unfused chain into accumulator column `acc`: per link, Fscale
  /// into the scratch column, then acc = acc + scratch. Empty `rows`
  /// means the contiguous ops over every row.
  void run_chain(Block& block, const std::vector<float>& imms,
                 std::uint32_t acc,
                 std::span<const std::uint32_t> rows = {}) const {
    const std::uint32_t mid = k + 2;
    for (std::uint32_t j = 0; j < k; ++j) {
      if (rows.empty()) {
        fscale(block, j, mid, imms[j], 0, Block::kRows);
        arith(block, Opcode::Fadd, acc, mid, acc, 0, Block::kRows);
      } else {
        fscale_rows(block, j, mid, imms[j], rows);
        arith_rows(block, Opcode::Fadd, acc, mid, acc, rows);
      }
    }
  }
};

}  // namespace

TEST(FusedKernelFuzz, ChainScaleAddMatchesUnfusedLinkSequence) {
  static const ArithModel model;
  constexpr std::uint32_t kRows = Block::kRows;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0x165667u);
    const ChainCase cc(rng, kRows);
    const std::uint32_t k = cc.k;

    // Only the last link's mid survives in the reference too.
    Block ref(&model);
    cc.load(ref);
    cc.run_chain(ref, cc.imms1, k);

    std::vector<float> mid = cc.sentinel;
    std::vector<float> acc = cc.acc1;
    word::chain_scale_add(acc.data(), mid.data(), cc.srcs.data(),
                          cc.imms1.data(), k, kRows);
    EXPECT_TRUE(bits_equal(acc, ref.column(k))) << "contig acc seed " << seed;
    EXPECT_TRUE(bits_equal(mid, ref.column(k + 2)))
        << "contig mid seed " << seed;

    // store_mid = false leaves the scratch column alone.
    std::vector<float> mid_off = cc.sentinel;
    std::vector<float> acc_off = cc.acc1;
    word::chain_scale_add(acc_off.data(), mid_off.data(), cc.srcs.data(),
                          cc.imms1.data(), k, kRows, /*store_mid=*/false);
    EXPECT_TRUE(bits_equal(acc_off, ref.column(k)))
        << "elided acc seed " << seed;
    EXPECT_TRUE(bits_equal(mid_off, cc.sentinel))
        << "elided mid seed " << seed;

    // The indexed variant against per-link references.
    const auto rows = distinct_rows(rng, kRows, 36);
    Block iref(&model);
    cc.load(iref);
    cc.run_chain(iref, cc.imms1, k, rows);
    std::vector<float> imid = cc.sentinel;
    std::vector<float> iacc = cc.acc1;
    word::chain_scale_add_indexed(iacc.data(), imid.data(), cc.srcs.data(),
                                  cc.imms1.data(), k, rows.data(),
                                  static_cast<std::uint32_t>(rows.size()));
    EXPECT_TRUE(bits_equal(iacc, iref.column(k))) << "indexed acc " << seed;
    EXPECT_TRUE(bits_equal(imid, iref.column(k + 2)))
        << "indexed mid " << seed;
  }
}

TEST(FusedKernelFuzz, Chain2ScaleAddMatchesTwoChainsBackToBack) {
  static const ArithModel model;
  constexpr std::uint32_t kRows = Block::kRows;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0x2545F4u);
    const ChainCase cc(rng, kRows);
    const std::uint32_t k = cc.k;

    // Reference: the two single chains back to back, exactly the
    // pre-pairing stream order. The second chain overwrites the first
    // one's scratch rows, so only its last product survives.
    Block ref(&model);
    cc.load(ref);
    cc.run_chain(ref, cc.imms1, k);
    cc.run_chain(ref, cc.imms2, k + 1);

    std::vector<float> mid = cc.sentinel;
    std::vector<float> acc1 = cc.acc1;
    std::vector<float> acc2 = cc.acc2;
    word::chain2_scale_add(acc1.data(), acc2.data(), mid.data(),
                           cc.srcs.data(), cc.imms1.data(), cc.imms2.data(),
                           k, kRows);
    EXPECT_TRUE(bits_equal(acc1, ref.column(k))) << "contig acc1 " << seed;
    EXPECT_TRUE(bits_equal(acc2, ref.column(k + 1))) << "contig acc2 " << seed;
    EXPECT_TRUE(bits_equal(mid, ref.column(k + 2))) << "contig mid " << seed;

    // store_mid = false leaves the scratch column alone.
    std::vector<float> mid_off = cc.sentinel;
    std::vector<float> acc1_off = cc.acc1;
    std::vector<float> acc2_off = cc.acc2;
    word::chain2_scale_add(acc1_off.data(), acc2_off.data(), mid_off.data(),
                           cc.srcs.data(), cc.imms1.data(), cc.imms2.data(),
                           k, kRows, /*store_mid=*/false);
    EXPECT_TRUE(bits_equal(acc1_off, ref.column(k))) << "elided acc1 " << seed;
    EXPECT_TRUE(bits_equal(acc2_off, ref.column(k + 1)))
        << "elided acc2 " << seed;
    EXPECT_TRUE(bits_equal(mid_off, cc.sentinel)) << "elided mid " << seed;

    // The indexed variant against the same paired reference.
    const auto rows = distinct_rows(rng, kRows, 36);
    const auto nrows = static_cast<std::uint32_t>(rows.size());
    Block iref(&model);
    cc.load(iref);
    cc.run_chain(iref, cc.imms1, k, rows);
    cc.run_chain(iref, cc.imms2, k + 1, rows);
    std::vector<float> imid = cc.sentinel;
    std::vector<float> iacc1 = cc.acc1;
    std::vector<float> iacc2 = cc.acc2;
    word::chain2_scale_add_indexed(iacc1.data(), iacc2.data(), imid.data(),
                                   cc.srcs.data(), cc.imms1.data(),
                                   cc.imms2.data(), k, rows.data(), nrows);
    EXPECT_TRUE(bits_equal(iacc1, iref.column(k))) << "indexed acc1 " << seed;
    EXPECT_TRUE(bits_equal(iacc2, iref.column(k + 1)))
        << "indexed acc2 " << seed;
    EXPECT_TRUE(bits_equal(imid, iref.column(k + 2))) << "indexed mid " << seed;
  }
}

TEST(FusedKernelFuzz, GatherMulAndGatherMulAddMatchUnfusedSequences) {
  static const ArithModel model;
  constexpr std::uint32_t kRows = Block::kRows;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0x9E3779u);
    const auto s = fuzz_column(rng, kRows);
    const auto b = fuzz_column(rng, kRows);
    const auto acc_init = fuzz_column(rng, kRows);
    const auto sentinel = fuzz_column(rng, kRows);
    // Gather rows may repeat (reads only) — no distinctness needed.
    std::vector<std::uint32_t> rows;
    for (std::uint32_t i = 0; i < 64; ++i) {
      rows.push_back(static_cast<std::uint32_t>(rng.next_below(kRows)));
    }
    const auto n = static_cast<std::uint32_t>(rows.size());

    // Reference columns: 0 = s, 1 = b, 2 = acc, 3 = g, 4 = mid / dst.
    // gather_mul vs gather; mul.
    Block ref(&model);
    load_columns(ref, {&s, &b, &acc_init, &sentinel, &sentinel});
    gather_rows(ref, rows, 0, 0, 3);
    arith(ref, Opcode::Fmul, 3, 1, 4, 0, n);

    std::vector<float> g = sentinel;
    std::vector<float> dst = sentinel;
    word::gather_mul(dst.data(), g.data(), s.data(), rows.data(), b.data(),
                     n);
    EXPECT_TRUE(bits_equal(dst, ref.column(4)))
        << "gather_mul dst seed " << seed;
    EXPECT_TRUE(bits_equal(g, ref.column(3))) << "gather_mul g seed " << seed;

    std::vector<float> g_off = sentinel;
    std::vector<float> dst_off = sentinel;
    word::gather_mul(dst_off.data(), g_off.data(), s.data(), rows.data(),
                     b.data(), n, /*store_g=*/false);
    EXPECT_TRUE(bits_equal(dst_off, ref.column(4)))
        << "gather_mul elided dst seed " << seed;
    EXPECT_TRUE(bits_equal(g_off, sentinel))
        << "gather_mul elided g seed " << seed;

    // gather_mul_add vs gather; mul; add — all four store_g/store_mid
    // combinations leave acc identical; elided columns stay untouched.
    arith(ref, Opcode::Fadd, 2, 4, 2, 0, n);
    for (int combo = 0; combo < 4; ++combo) {
      const bool store_g = (combo & 1) != 0;
      const bool store_mid = (combo & 2) != 0;
      std::vector<float> g2 = sentinel;
      std::vector<float> mid2 = sentinel;
      std::vector<float> acc2 = acc_init;
      word::gather_mul_add(acc2.data(), mid2.data(), g2.data(), s.data(),
                           rows.data(), b.data(), n, store_g, store_mid);
      EXPECT_TRUE(bits_equal(acc2, ref.column(2)))
          << "gma acc combo " << combo << " seed " << seed;
      const std::span<const float> g_want = ref.column(3);
      const std::span<const float> mid_want = ref.column(4);
      EXPECT_TRUE(bits_equal(g2, store_g ? g_want : sentinel))
          << "gma g combo " << combo << " seed " << seed;
      EXPECT_TRUE(bits_equal(mid2, store_mid ? mid_want : sentinel))
          << "gma mid combo " << combo << " seed " << seed;
    }
  }
}

TEST(WordKernelFuzz, ClassifyRowsResolvesEveryShape) {
  using word::RowPattern;
  const std::uint32_t contig[] = {4, 5, 6, 7};
  auto p = word::classify_rows(contig);
  EXPECT_EQ(p.kind, RowPattern::Kind::Contiguous);
  EXPECT_EQ(p.start, 4u);

  // A constant stride is walked through its row list like any other.
  const std::uint32_t strided[] = {3, 6, 9, 12};
  EXPECT_EQ(word::classify_rows(strided).kind, RowPattern::Kind::Indexed);

  const std::uint32_t descending[] = {9, 6, 3};
  EXPECT_EQ(word::classify_rows(descending).kind, RowPattern::Kind::Indexed);
  const std::uint32_t repeated[] = {2, 2, 3};
  EXPECT_EQ(word::classify_rows(repeated).kind, RowPattern::Kind::Indexed);
  const std::uint32_t irregular[] = {1, 2, 4, 8};
  EXPECT_EQ(word::classify_rows(irregular).kind, RowPattern::Kind::Indexed);
  EXPECT_EQ(word::classify_rows({}).kind, RowPattern::Kind::Contiguous);
}

}  // namespace
}  // namespace wavepim::pim
