#pragma once

#include <cstdint>
#include <span>

namespace wavepim::pim::word {

/// Word-level FP32 kernels — the substrate of the word execution tier
/// every program runs (mapping/word_plan.h).
///
/// The functional Block model already stores FP32 words; the test-side
/// oracle's block ops (tests/support/block_ops.h) pay per-op ledger
/// pricing and per-word address checks so the bit-serial cost semantics
/// stay attached to every operation. These kernels strip that fidelity
/// down to the arithmetic itself: straight loops over raw column storage,
/// written so the compiler vectorizes them. They MUST stay bit-identical
/// to the scalar expressions of the oracle's arith / fscale / faxpy /
/// gather_rows and ExecutionPlan::run_op — per word, the same IEEE
/// operation in the same order, no reassociation, no fused multiply-add
/// the scalar path would not emit. That contract is pinned by the
/// differential fuzz sweeps in tests/pim/arith_test.cpp (seeded random
/// operands incl. +-0, denormals, inf/NaN and overflow rounding) and
/// end-to-end by the conformance suites.
///
/// Only the shapes the DG programs dispatch have a kernel; the word plan
/// runs every other op through ExecutionPlan::run_op. Row lists come in
/// two addressing shapes (word.cpp's classify_rows picks one at
/// plan-build time, never per step):
///  * contiguous — rows [start, start+n), walked by offset
///  * indexed    — any other list (face-node subsets included), walked
///    through its interned row pointer
///
/// Pointers may alias only as whole columns (col_dst == col_a is legal,
/// partial overlap cannot happen — columns are disjoint contiguous
/// runs). For the arithmetic kernels every operand uses the *same* row
/// index per iteration, so whole-column aliasing carries no
/// cross-iteration dependence at all: iteration i touches index r_i
/// only, and the r_i are distinct. WAVEPIM_IVDEP asserts exactly that,
/// sparing the vectorizer its runtime overlap checks — which, at the
/// 9-27-row trip counts of a DG element, would otherwise cost more than
/// the loop body. The indexed *store* kernel (move) makes no such
/// promise and stays pragma-free: it must execute in scalar forward
/// order whenever the row list repeats or overlaps the source.
///
/// These kernels are compiled once, for the build's baseline target
/// (4-lane SSE2 on plain x86-64): they are the whole word executor on
/// hosts without AVX2. AVX2 hosts run the word plan through the
/// hand-vectorized engine of mapping/word_avx2.h instead, and reach
/// these kernels only for the ops that engine has no form for (its
/// Fallback ops: Compiled ops and windows wider than 4 groups). The
/// host alone picks the engine; no setting overrides it.

#if defined(__clang__)
#define WAVEPIM_IVDEP _Pragma("clang loop vectorize(assume_safety)")
#elif defined(__GNUC__)
#define WAVEPIM_IVDEP _Pragma("GCC ivdep")
#else
#define WAVEPIM_IVDEP
#endif

// --- Unfused arithmetic ---------------------------------------------------

/// dst[r] = a[r] + b[r] over [0, n).
inline void add(float* dst, const float* a, const float* b,
                std::uint32_t n) {
  WAVEPIM_IVDEP
  for (std::uint32_t i = 0; i < n; ++i) {
    dst[i] = a[i] + b[i];
  }
}

/// dst[r] = c * src[r] over [0, n).
inline void scale(float* dst, const float* src, float c, std::uint32_t n) {
  WAVEPIM_IVDEP
  for (std::uint32_t i = 0; i < n; ++i) {
    dst[i] = c * src[i];
  }
}

// --- Fused op pairs -------------------------------------------------------
//
// Peephole targets of the word-plan fusion pass: the probed coefficients
// emit long Fscale->Fadd (flux) and Fmul->Fadd (volume) chains whose
// intermediate lands in a scratch column and is immediately re-read as
// the second operand of an accumulate. The fused kernels keep the
// intermediate *store* — the full-chip hashes and the differential
// witness cover scratch columns, so the post-state must be identical —
// but forward the value in a register, removing the reload and halving
// the loop/dispatch count. Bit-identity with the unfused sequence holds
// whenever both ops walk the same distinct row set: iteration i then
// touches row r_i of every column exactly once, so interleaving the two
// ops per row cannot reorder any load/store pair on the same address
// beyond what the within-iteration order already fixes (mid store before
// dst store, operand loads before both). The plan verifies row
// distinctness for indexed lists before fusing.
//
// `store_mid` (default true) lets the plan elide the intermediate store
// entirely when its dead-store pass proved a later op of the SAME
// stream fully overwrites the scratch rows before anything reads them —
// state is only observed at phase end, so the elided store is
// unobservable. The arithmetic is unchanged either way.

/// Fused Fscale -> Fadd: m = c * a[r]; mid[r] = m; dst[r] = b[r] + m.
inline void scale_add(float* dst, float* mid, const float* a, const float* b,
                      float c, std::uint32_t n, bool store_mid = true) {
  WAVEPIM_IVDEP
  for (std::uint32_t i = 0; i < n; ++i) {
    const float m = c * a[i];
    const float s = b[i] + m;
    if (store_mid) {
      mid[i] = m;
    }
    dst[i] = s;
  }
}

inline void scale_add_indexed(float* dst, float* mid, const float* a,
                              const float* b, float c,
                              const std::uint32_t* rows, std::uint32_t n,
                              bool store_mid = true) {
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = rows[i];
    const float m = c * a[r];
    const float s = b[r] + m;
    if (store_mid) {
      mid[r] = m;
    }
    dst[r] = s;
  }
}

/// Fused Faxpy -> Faxpy chain (the RK Integration pair: advance the
/// stage register, then fold it into the state):
///   m = a1*d1[r] + c1*s1[r]; d1[r] = m; d2[r] = a2*d2[r] + c2*m.
inline void axpy_pair(float* d1, const float* s1, float* d2, float a1,
                      float c1, float a2, float c2, std::uint32_t n) {
  WAVEPIM_IVDEP
  for (std::uint32_t i = 0; i < n; ++i) {
    const float m = a1 * d1[i] + c1 * s1[i];
    d1[i] = m;
    d2[i] = a2 * d2[i] + c2 * m;
  }
}

// --- Fused accumulation chains --------------------------------------------
//
// The flux programs are runs of K Fscale->Fadd pairs folding into ONE
// accumulator column through ONE scratch column:
//   for k: mid = imm_k * src_k;  acc = acc + mid
// The chain kernels walk rows outermost and links innermost, keeping the
// accumulator in a register across the whole run: per row, acc picks up
// the K products in link order — the exact IEEE add sequence of the
// unfused ops, since link k's Fadd reads the acc value link k-1 wrote.
// Only the LAST link's product is stored to the scratch column: the
// earlier links' stores are overwritten before anything can read them
// (sources are checked against the scratch and accumulator columns at
// fuse time, and hashes/witness observe state only at phase end).
// Row-distinctness is required — with a repeated row, the unfused pass
// order folds link k into ALL duplicate rows before link k+1, while the
// chain folds all links into one row first — and is inherited from the
// pairwise fusion obligations (contiguous runs by construction, indexed
// lists verified duplicate-free).

/// K-link chain over rows [0, n): acc[r] += sum_k imm_k * src_k[r] in
/// link order; mid[r] keeps the last link's product.
inline void chain_scale_add(float* acc, float* mid,
                            const float* const* srcs, const float* imms,
                            std::uint32_t k, std::uint32_t n,
                            bool store_mid = true) {
  for (std::uint32_t i = 0; i < n; ++i) {
    float a = acc[i];
    float m = 0.0f;
    for (std::uint32_t j = 0; j < k; ++j) {
      m = imms[j] * srcs[j][i];
      a = a + m;
    }
    if (store_mid) {
      mid[i] = m;
    }
    acc[i] = a;
  }
}

inline void chain_scale_add_indexed(float* acc, float* mid,
                                    const float* const* srcs,
                                    const float* imms, std::uint32_t k,
                                    const std::uint32_t* rows,
                                    std::uint32_t n, bool store_mid = true) {
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = rows[i];
    float a = acc[r];
    float m = 0.0f;
    for (std::uint32_t j = 0; j < k; ++j) {
      m = imms[j] * srcs[j][r];
      a = a + m;
    }
    if (store_mid) {
      mid[r] = m;
    }
    acc[r] = a;
  }
}

// --- Paired chains (dual accumulator) -------------------------------------
//
// The flux programs emit the chains above in PAIRS: two back-to-back
// runs over the identical source columns, folding into two different
// accumulators with different immediates. The paired kernels load each
// source row once and feed both accumulators from the register. Each
// accumulator still evaluates its own products and adds in link order
// on the same operands, so both results are bit-identical to running
// the two chains back to back; `mid` keeps the SECOND chain's last
// product (the first chain's scratch store is dead by construction —
// the second chain overwrites the same rows — and must have been
// elided before pairing). The aliasing obligations extend the single
// chain's: both accumulators and the scratch are three distinct
// columns, disjoint from every source.

/// acc1[r] += sum_j imms1[j]*src_j[r]; acc2[r] += sum_j imms2[j]*src_j[r];
/// mid[r] keeps the second chain's last product.
inline void chain2_scale_add(float* acc1, float* acc2, float* mid,
                             const float* const* srcs, const float* imms1,
                             const float* imms2, std::uint32_t k,
                             std::uint32_t n, bool store_mid = true) {
  for (std::uint32_t i = 0; i < n; ++i) {
    float a1 = acc1[i];
    float a2 = acc2[i];
    float m = 0.0f;
    for (std::uint32_t j = 0; j < k; ++j) {
      const float v = srcs[j][i];
      a1 = a1 + imms1[j] * v;
      m = imms2[j] * v;
      a2 = a2 + m;
    }
    if (store_mid) {
      mid[i] = m;
    }
    acc1[i] = a1;
    acc2[i] = a2;
  }
}

inline void chain2_scale_add_indexed(float* acc1, float* acc2, float* mid,
                                     const float* const* srcs,
                                     const float* imms1, const float* imms2,
                                     std::uint32_t k,
                                     const std::uint32_t* rows,
                                     std::uint32_t n, bool store_mid = true) {
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = rows[i];
    float a1 = acc1[r];
    float a2 = acc2[r];
    float m = 0.0f;
    for (std::uint32_t j = 0; j < k; ++j) {
      const float v = srcs[j][r];
      a1 = a1 + imms1[j] * v;
      m = imms2[j] * v;
      a2 = a2 + m;
    }
    if (store_mid) {
      mid[r] = m;
    }
    acc1[r] = a1;
    acc2[r] = a2;
  }
}

// --- Fused gather-consume -------------------------------------------------
//
// The volume programs gather a variable into a scratch column and
// multiply it against a coefficient row in the very next op. The fused
// kernels forward the gathered value in a register, removing the
// scratch reload pass. All loads of a row happen before its stores —
// the per-row order of the unfused kernels — and the fuse pass keeps
// the source column disjoint from every written column, so interleaving
// the gather with its consumer per row is order-neutral.

/// Gather + Fmul: g[i] = s[rows[i]]; dst[i] = g[i] * b[i].
inline void gather_mul(float* dst, float* g, const float* s,
                       const std::uint32_t* rows, const float* b,
                       std::uint32_t n, bool store_g = true) {
  for (std::uint32_t i = 0; i < n; ++i) {
    const float gv = s[rows[i]];
    const float bv = b[i];
    if (store_g) {
      g[i] = gv;
    }
    dst[i] = gv * bv;
  }
}

/// Gather + Fmul + Fadd accumulate:
///   g[i] = s[rows[i]]; m = g[i] * b[i]; mid[i] = m; acc[i] += m.
inline void gather_mul_add(float* acc, float* mid, float* g, const float* s,
                           const std::uint32_t* rows, const float* b,
                           std::uint32_t n, bool store_g = true,
                           bool store_mid = true) {
  for (std::uint32_t i = 0; i < n; ++i) {
    const float gv = s[rows[i]];
    const float bv = b[i];
    const float cv = acc[i];
    if (store_g) {
      g[i] = gv;
    }
    const float m = gv * bv;
    if (store_mid) {
      mid[i] = m;
    }
    acc[i] = cv + m;
  }
}

// --- Data movement --------------------------------------------------------

/// dst[dst_rows[i]] = src[src_rows[i]] — inter-column (and inter-block)
/// row moves.
inline void move(float* dst, const std::uint32_t* dst_rows, const float* src,
                 const std::uint32_t* src_rows, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) {
    dst[dst_rows[i]] = src[src_rows[i]];
  }
}

// --- Row-pattern classification -------------------------------------------

/// Addressing shape of one compiled row list, resolved once at word-plan
/// build so the per-step loops never inspect indices.
struct RowPattern {
  enum class Kind : std::uint8_t { Contiguous, Indexed };

  Kind kind = Kind::Contiguous;
  std::uint32_t start = 0;  ///< Contiguous only
};

/// Classifies `rows`: an empty or single-row list and any run with unit
/// ascending stride is Contiguous, anything else (strided, descending,
/// irregular, repeated) is Indexed.
[[nodiscard]] RowPattern classify_rows(std::span<const std::uint32_t> rows);

}  // namespace wavepim::pim::word
