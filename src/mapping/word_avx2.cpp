#include "mapping/word_avx2.h"

#include "common/error.h"
#include "mapping/exec_plan.h"
#include "pim/block.h"

// The engine is gated per-function with __attribute__((target("avx2")))
// rather than a TU-wide -mavx2: the attribute lets GCC/clang emit AVX2
// intrinsics from an otherwise-baseline translation unit, so no inline
// function from a shared header can ever be instantiated with AVX2 code
// and leak into baseline binaries through the linker. Dispatch is
// decided at plan build: WordPlan::compile gives a stream its AVX2
// mirror only when supported() holds, and a stream without one runs
// the portable kernels.
//
// Every kernel is specialized on its group counts (1-4 destination
// groups, 1-4 source-window groups): the destination loop fully
// unrolls, and the per-op constants — lane masks, permutation indices,
// scatter values — hoist into ymm registers once per op instead of
// reloading per element. At 9-27 rows per op the kernels are load-port
// bound, so removing those reloads is worth more than the arithmetic
// itself. There is no wider form: WordPlan::build_avx turns any op
// whose window exceeds 4 groups into a Fallback op, so the size
// switches below only ever see 1-4.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WAVEPIM_AVX2_ENGINE 1
#include <immintrin.h>
#endif

namespace wavepim::mapping::wordavx {

#if WAVEPIM_AVX2_ENGINE

#define WAVEPIM_AVX2_FN \
  __attribute__((target("avx2"), always_inline)) static inline

namespace {

WAVEPIM_AVX2_FN __m256 lane_mask(const AvxOp& op, std::uint32_t g) {
  return _mm256_castsi256_ps(_mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(op.mask + 8 * g)));
}

/// dst = a + b over the window; masked groups keep old lanes via a
/// blend against the freshly loaded destination (rewriting identical
/// bytes — bit-neutral, and race-free because every row of the window
/// belongs to this element's block).
template <int NG>
__attribute__((target("avx2"))) void add_n(const AvxOp& op,
                                           float* const* ptrs, std::size_t n,
                                           std::uint32_t num_groups) {
  __m256 m[NG];
  for (int g = 0; g < NG; ++g) {
    m[g] = lane_mask(op, static_cast<std::uint32_t>(g));
  }
  const std::uint32_t nfull = op.nfull;
  for (std::size_t i = 0; i < n; ++i) {
    float* w = ptrs[i * num_groups + op.group];
    const float* a = w + op.off_a;
    const float* b = w + op.off_b;
    float* d = w + op.off_dst;
    for (int g = 0; g < NG; ++g) {
      const __m256 v =
          _mm256_add_ps(_mm256_loadu_ps(a + 8 * g), _mm256_loadu_ps(b + 8 * g));
      if (static_cast<std::uint32_t>(g) < nfull) {
        _mm256_storeu_ps(d + 8 * g, v);
      } else {
        const __m256 old = _mm256_loadu_ps(d + 8 * g);
        _mm256_storeu_ps(d + 8 * g, _mm256_blendv_ps(old, v, m[g]));
      }
    }
  }
}

/// dst = imm * a.
template <int NG>
__attribute__((target("avx2"))) void scale_n(const AvxOp& op,
                                             float* const* ptrs, std::size_t n,
                                             std::uint32_t num_groups) {
  __m256 m[NG];
  for (int g = 0; g < NG; ++g) {
    m[g] = lane_mask(op, static_cast<std::uint32_t>(g));
  }
  const __m256 c = _mm256_set1_ps(op.imm);
  const std::uint32_t nfull = op.nfull;
  for (std::size_t i = 0; i < n; ++i) {
    float* w = ptrs[i * num_groups + op.group];
    const float* a = w + op.off_a;
    float* d = w + op.off_dst;
    for (int g = 0; g < NG; ++g) {
      const __m256 v = _mm256_mul_ps(c, _mm256_loadu_ps(a + 8 * g));
      if (static_cast<std::uint32_t>(g) < nfull) {
        _mm256_storeu_ps(d + 8 * g, v);
      } else {
        const __m256 old = _mm256_loadu_ps(d + 8 * g);
        _mm256_storeu_ps(d + 8 * g, _mm256_blendv_ps(old, v, m[g]));
      }
    }
  }
}

/// Fused Fscale->Fadd: the intermediate is stored to off_dst (hashed
/// scratch state) and forwarded in a register to the accumulate, whose other operand (off_c, never equal to off_dst) is
/// loaded before the destination (off_d) store of the same group — the
/// scalar kernels' order, so off_c == off_d (dst = dst + mid) and
/// off_d == off_dst both resolve identically. Cross-group order is
/// irrelevant: 8-lane group spans of a column are disjoint and blends
/// rewrite non-member lanes with their own bytes.
template <int NG>
__attribute__((target("avx2"))) void scale_add_n(const AvxOp& op,
                                                 float* const* ptrs,
                                                 std::size_t n,
                                                 std::uint32_t num_groups) {
  __m256 m[NG];
  for (int g = 0; g < NG; ++g) {
    m[g] = lane_mask(op, static_cast<std::uint32_t>(g));
  }
  const __m256 c = _mm256_set1_ps(op.imm);
  const std::uint32_t nfull = op.nfull;
  const bool store_mid = (op.skip & 1u) == 0;
  for (std::size_t i = 0; i < n; ++i) {
    float* w = ptrs[i * num_groups + op.group];
    const float* a = w + op.off_a;
    const float* acc = w + op.off_c;
    float* mid = w + op.off_dst;
    float* d = w + op.off_d;
    for (int g = 0; g < NG; ++g) {
      const __m256 v = _mm256_mul_ps(c, _mm256_loadu_ps(a + 8 * g));
      const bool dense = static_cast<std::uint32_t>(g) < nfull;
      if (store_mid) {
        if (dense) {
          _mm256_storeu_ps(mid + 8 * g, v);
        } else {
          const __m256 oldm = _mm256_loadu_ps(mid + 8 * g);
          _mm256_storeu_ps(mid + 8 * g, _mm256_blendv_ps(oldm, v, m[g]));
        }
      }
      const __m256 r = _mm256_add_ps(_mm256_loadu_ps(acc + 8 * g), v);
      if (dense) {
        _mm256_storeu_ps(d + 8 * g, r);
      } else {
        const __m256 oldd = _mm256_loadu_ps(d + 8 * g);
        _mm256_storeu_ps(d + 8 * g, _mm256_blendv_ps(oldd, r, m[g]));
      }
    }
  }
}

/// Fused Faxpy->Faxpy RK chain: d1 is stored before d2's old value is
/// loaded, so d2 == d1 reads the freshly written lanes exactly like the
/// scalar kernel's per-row order. Two multiplies and an add per axpy —
/// never an FMA.
template <int NG>
__attribute__((target("avx2"))) void axpy_pair_n(const AvxOp& op,
                                                 float* const* ptrs,
                                                 std::size_t n,
                                                 std::uint32_t num_groups) {
  __m256 m[NG];
  for (int g = 0; g < NG; ++g) {
    m[g] = lane_mask(op, static_cast<std::uint32_t>(g));
  }
  const __m256 a1 = _mm256_set1_ps(op.imm);
  const __m256 c1 = _mm256_set1_ps(op.imm2);
  const __m256 a2 = _mm256_set1_ps(op.imm3);
  const __m256 c2 = _mm256_set1_ps(op.imm4);
  const std::uint32_t nfull = op.nfull;
  for (std::size_t i = 0; i < n; ++i) {
    float* w = ptrs[i * num_groups + op.group];
    const float* s1 = w + op.off_a;
    float* d1 = w + op.off_dst;
    float* d2 = w + op.off_c;
    for (int g = 0; g < NG; ++g) {
      const __m256 old1 = _mm256_loadu_ps(d1 + 8 * g);
      const __m256 v =
          _mm256_add_ps(_mm256_mul_ps(a1, old1),
                        _mm256_mul_ps(c1, _mm256_loadu_ps(s1 + 8 * g)));
      const bool dense = static_cast<std::uint32_t>(g) < nfull;
      if (dense) {
        _mm256_storeu_ps(d1 + 8 * g, v);
      } else {
        _mm256_storeu_ps(d1 + 8 * g, _mm256_blendv_ps(old1, v, m[g]));
      }
      const __m256 old2 = _mm256_loadu_ps(d2 + 8 * g);
      const __m256 r =
          _mm256_add_ps(_mm256_mul_ps(a2, old2), _mm256_mul_ps(c2, v));
      if (dense) {
        _mm256_storeu_ps(d2 + 8 * g, r);
      } else {
        _mm256_storeu_ps(d2 + 8 * g, _mm256_blendv_ps(old2, r, m[g]));
      }
    }
  }
}

/// ChainScaleAdd head: `ops[0].chain` ScaleAdd links (ops[1..] are the
/// Nop data carriers) folding into one accumulator (off_c == off_d)
/// through one scratch column (off_dst). The accumulator rides in a
/// register across the links and only the last product store lands —
/// bit-legal per the fuse pass's obligations (no link source aliases
/// the scratch or accumulator column, and earlier products are dead
/// stores at phase granularity). The adds evaluate in link order, so
/// every lane reproduces the scalar chain kernel's IEEE sequence.
template <int NG>
__attribute__((target("avx2"))) void chain_n(const AvxOp* ops,
                                             float* const* ptrs, std::size_t n,
                                             std::uint32_t num_groups) {
  const AvxOp& op = ops[0];
  const std::uint32_t chain = op.chain;
  __m256 m[NG];
  for (int g = 0; g < NG; ++g) {
    m[g] = lane_mask(op, static_cast<std::uint32_t>(g));
  }
  __m256 cs[16];
  for (std::uint32_t j = 0; j < chain; ++j) {
    cs[j] = _mm256_set1_ps(ops[j].imm);
  }
  const std::uint32_t nfull = op.nfull;
  const bool store_mid = (op.skip & 1u) == 0;
  for (std::size_t i = 0; i < n; ++i) {
    float* w = ptrs[i * num_groups + op.group];
    float* accp = w + op.off_c;
    float* midp = w + op.off_dst;
    for (int g = 0; g < NG; ++g) {
      const __m256 old = _mm256_loadu_ps(accp + 8 * g);
      __m256 acc = old;
      __m256 v = _mm256_setzero_ps();
      for (std::uint32_t j = 0; j < chain; ++j) {
        v = _mm256_mul_ps(cs[j], _mm256_loadu_ps(w + ops[j].off_a + 8 * g));
        acc = _mm256_add_ps(acc, v);
      }
      const bool dense = static_cast<std::uint32_t>(g) < nfull;
      if (store_mid) {
        if (dense) {
          _mm256_storeu_ps(midp + 8 * g, v);
        } else {
          const __m256 oldm = _mm256_loadu_ps(midp + 8 * g);
          _mm256_storeu_ps(midp + 8 * g, _mm256_blendv_ps(oldm, v, m[g]));
        }
      }
      if (dense) {
        _mm256_storeu_ps(accp + 8 * g, acc);
      } else {
        _mm256_storeu_ps(accp + 8 * g, _mm256_blendv_ps(old, acc, m[g]));
      }
    }
  }
}

void run_chain(const AvxOp* ops, float* const* ptrs, std::size_t n,
               std::uint32_t num_groups) {
  switch (ops[0].ngroups) {
    case 1:
      chain_n<1>(ops, ptrs, n, num_groups);
      break;
    case 2:
      chain_n<2>(ops, ptrs, n, num_groups);
      break;
    case 3:
      chain_n<3>(ops, ptrs, n, num_groups);
      break;
    case 4:
      chain_n<4>(ops, ptrs, n, num_groups);
      break;
  }
}

/// Paired chain head (fuse pass 5): `chain2` links per half, both
/// accumulators (off_c, off_b) fed from ONE pass over the shared source
/// windows. Entry [j] carries link j's source offset + first-half
/// immediate, entry [chain2 + j] the second half's immediate. Each
/// accumulator sees exactly its single-chain IEEE sequence — same
/// products, same add order — so the merge is bit-invisible; the
/// scratch store is the second half's last product, gated by the skip
/// bit the lowering copied from the second run's head.
template <int NG>
__attribute__((target("avx2"))) void chain2_n(const AvxOp* ops,
                                              float* const* ptrs,
                                              std::size_t n,
                                              std::uint32_t num_groups) {
  const AvxOp& op = ops[0];
  const std::uint32_t half = op.chain2;
  __m256 m[NG];
  for (int g = 0; g < NG; ++g) {
    m[g] = lane_mask(op, static_cast<std::uint32_t>(g));
  }
  __m256 cs1[16];
  __m256 cs2[16];
  for (std::uint32_t j = 0; j < half; ++j) {
    cs1[j] = _mm256_set1_ps(ops[j].imm);
    cs2[j] = _mm256_set1_ps(ops[half + j].imm);
  }
  const std::uint32_t nfull = op.nfull;
  const bool store_mid = (op.skip & 1u) == 0;
  for (std::size_t i = 0; i < n; ++i) {
    float* w = ptrs[i * num_groups + op.group];
    float* acc1p = w + op.off_c;
    float* acc2p = w + op.off_b;
    float* midp = w + op.off_dst;
    for (int g = 0; g < NG; ++g) {
      const __m256 old1 = _mm256_loadu_ps(acc1p + 8 * g);
      const __m256 old2 = _mm256_loadu_ps(acc2p + 8 * g);
      __m256 a1 = old1;
      __m256 a2 = old2;
      __m256 v2 = _mm256_setzero_ps();
      for (std::uint32_t j = 0; j < half; ++j) {
        const __m256 v = _mm256_loadu_ps(w + ops[j].off_a + 8 * g);
        a1 = _mm256_add_ps(a1, _mm256_mul_ps(cs1[j], v));
        v2 = _mm256_mul_ps(cs2[j], v);
        a2 = _mm256_add_ps(a2, v2);
      }
      const bool dense = static_cast<std::uint32_t>(g) < nfull;
      if (store_mid) {
        if (dense) {
          _mm256_storeu_ps(midp + 8 * g, v2);
        } else {
          const __m256 oldm = _mm256_loadu_ps(midp + 8 * g);
          _mm256_storeu_ps(midp + 8 * g, _mm256_blendv_ps(oldm, v2, m[g]));
        }
      }
      if (dense) {
        _mm256_storeu_ps(acc1p + 8 * g, a1);
        _mm256_storeu_ps(acc2p + 8 * g, a2);
      } else {
        _mm256_storeu_ps(acc1p + 8 * g, _mm256_blendv_ps(old1, a1, m[g]));
        _mm256_storeu_ps(acc2p + 8 * g, _mm256_blendv_ps(old2, a2, m[g]));
      }
    }
  }
}

void run_chain2(const AvxOp* ops, float* const* ptrs, std::size_t n,
                std::uint32_t num_groups) {
  switch (ops[0].ngroups) {
    case 1:
      chain2_n<1>(ops, ptrs, n, num_groups);
      break;
    case 2:
      chain2_n<2>(ops, ptrs, n, num_groups);
      break;
    case 3:
      chain2_n<3>(ops, ptrs, n, num_groups);
      break;
    case 4:
      chain2_n<4>(ops, ptrs, n, num_groups);
      break;
  }
}

/// Fused gather-consume (same-block, own element): the gathered value
/// is selected from the pre-loaded source window (exactly the Permute
/// network), stored to the gather destination (hashed scratch state)
/// and forwarded in a register to the multiply/accumulate. Per group
/// every load (window, b, acc) happens before every store (g, mid,
/// acc) — the scalar fused kernels' order — and the fuse pass keeps
/// the source column disjoint from everything written.
template <bool Acc, int NG, int WG>
__attribute__((target("avx2"))) void gather_mul_n(const AvxOp& op,
                                                  float* const* ptrs,
                                                  std::size_t n,
                                                  std::uint32_t num_groups) {
  __m256 m[NG];
  __m256i idx[NG];
  for (int g = 0; g < NG; ++g) {
    m[g] = lane_mask(op, static_cast<std::uint32_t>(g));
    idx[g] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(op.perm + 8 * g));
  }
  const std::uint32_t nfull = op.nfull;
  const bool store_g = (op.skip & 2u) == 0;
  const bool store_mid = (op.skip & 1u) == 0;
  for (std::size_t i = 0; i < n; ++i) {
    float* w = ptrs[i * num_groups + op.group];
    const float* srcp = w + op.off_a;
    __m256 win[WG];
    for (int j = 0; j < WG; ++j) {
      win[j] = _mm256_loadu_ps(srcp + 8 * j);
    }
    float* gp = w + op.off_dst;
    // A forwarded constant b reads the plan's padded lane table (shared
    // across elements) instead of the scratch column.
    const float* bp = op.values != nullptr ? op.values : w + op.off_b;
    float* midp = w + op.off_d;
    float* accp = w + op.off_c;
    for (int g = 0; g < NG; ++g) {
      __m256 gv = _mm256_permutevar8x32_ps(win[0], idx[g]);
      const __m256i hi = _mm256_srli_epi32(idx[g], 3);
      for (int j = 1; j < WG; ++j) {
        const __m256i sel = _mm256_cmpeq_epi32(hi, _mm256_set1_epi32(j));
        gv = _mm256_blendv_ps(gv, _mm256_permutevar8x32_ps(win[j], idx[g]),
                              _mm256_castsi256_ps(sel));
      }
      const __m256 bv = _mm256_loadu_ps(bp + 8 * g);
      const __m256 cv =
          Acc ? _mm256_loadu_ps(accp + 8 * g) : _mm256_setzero_ps();
      const bool dense = static_cast<std::uint32_t>(g) < nfull;
      if (store_g) {
        if (dense) {
          _mm256_storeu_ps(gp + 8 * g, gv);
        } else {
          const __m256 oldg = _mm256_loadu_ps(gp + 8 * g);
          _mm256_storeu_ps(gp + 8 * g, _mm256_blendv_ps(oldg, gv, m[g]));
        }
      }
      const __m256 prod = _mm256_mul_ps(gv, bv);
      if (store_mid) {
        if (dense) {
          _mm256_storeu_ps(midp + 8 * g, prod);
        } else {
          const __m256 oldm = _mm256_loadu_ps(midp + 8 * g);
          _mm256_storeu_ps(midp + 8 * g, _mm256_blendv_ps(oldm, prod, m[g]));
        }
      }
      if (Acc) {
        const __m256 r = _mm256_add_ps(cv, prod);
        if (dense) {
          _mm256_storeu_ps(accp + 8 * g, r);
        } else {
          _mm256_storeu_ps(accp + 8 * g, _mm256_blendv_ps(cv, r, m[g]));
        }
      }
    }
  }
}

template <bool Acc, int NG>
void run_gather_mul_ng(const AvxOp& op, float* const* ptrs, std::size_t n,
                       std::uint32_t num_groups) {
  switch (op.wgroups) {
    case 1:
      gather_mul_n<Acc, NG, 1>(op, ptrs, n, num_groups);
      break;
    case 2:
      gather_mul_n<Acc, NG, 2>(op, ptrs, n, num_groups);
      break;
    case 3:
      gather_mul_n<Acc, NG, 3>(op, ptrs, n, num_groups);
      break;
    case 4:
      gather_mul_n<Acc, NG, 4>(op, ptrs, n, num_groups);
      break;
  }
}

template <bool Acc>
void run_gather_mul(const AvxOp& op, float* const* ptrs, std::size_t n,
                    std::uint32_t num_groups) {
  switch (op.ngroups) {
    case 1:
      run_gather_mul_ng<Acc, 1>(op, ptrs, n, num_groups);
      break;
    case 2:
      run_gather_mul_ng<Acc, 2>(op, ptrs, n, num_groups);
      break;
    case 3:
      run_gather_mul_ng<Acc, 3>(op, ptrs, n, num_groups);
      break;
    case 4:
      run_gather_mul_ng<Acc, 4>(op, ptrs, n, num_groups);
      break;
  }
}

/// dst = plan constants (the padded values arena).
template <int NG>
__attribute__((target("avx2"))) void const_n(const AvxOp& op,
                                             float* const* ptrs, std::size_t n,
                                             std::uint32_t num_groups) {
  __m256 m[NG];
  __m256 v[NG];
  for (int g = 0; g < NG; ++g) {
    m[g] = lane_mask(op, static_cast<std::uint32_t>(g));
    v[g] = _mm256_loadu_ps(op.values + 8 * g);
  }
  const std::uint32_t nfull = op.nfull;
  for (std::size_t i = 0; i < n; ++i) {
    float* d = ptrs[i * num_groups + op.group] + op.off_dst;
    for (int g = 0; g < NG; ++g) {
      if (static_cast<std::uint32_t>(g) < nfull) {
        _mm256_storeu_ps(d + 8 * g, v[g]);
      } else {
        const __m256 old = _mm256_loadu_ps(d + 8 * g);
        _mm256_storeu_ps(d + 8 * g, _mm256_blendv_ps(old, v[g], m[g]));
      }
    }
  }
}

WAVEPIM_AVX2_FN const float* permute_src(const AvxOp& op, const ExecCtx& ctx,
                                         std::size_t i) {
  if (op.face < 0) {
    return ctx.ptrs[i * ctx.num_groups + op.group] + op.off_a;
  }
  const std::uint32_t nb =
      ctx.plan->neighbor_bases(ctx.elems[i])[static_cast<std::size_t>(op.face)];
  return (*ctx.blocks)(nb + op.group).words().data() + op.off_a;
}

/// Window-load + lane-select movement (gather and move): the whole
/// source window (<= 4 ymm) is read into registers before any store,
/// which reproduces the compiled tier's gather staging; each
/// destination lane then picks its source lane through a vpermps
/// select network (vpermps consumes the low 3 bits of each index; the
/// window group is chosen by comparing the high bits, recomputed per
/// group with ALU ops — the kernels are load-bound, not ALU-bound).
template <int NG, int WG>
__attribute__((target("avx2"))) void permute_n(const AvxOp& op,
                                               const ExecCtx& ctx) {
  __m256 m[NG];
  __m256i idx[NG];
  for (int g = 0; g < NG; ++g) {
    m[g] = lane_mask(op, static_cast<std::uint32_t>(g));
    idx[g] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(op.perm + 8 * g));
  }
  const std::size_t n = ctx.elems.size();
  const std::uint32_t num_groups = ctx.num_groups;
  float* const* ptrs = ctx.ptrs;
  const std::uint32_t nfull = op.nfull;
  for (std::size_t i = 0; i < n; ++i) {
    const float* srcp = permute_src(op, ctx, i);
    __m256 win[WG];
    for (int j = 0; j < WG; ++j) {
      win[j] = _mm256_loadu_ps(srcp + 8 * j);
    }
    float* d = ptrs[i * num_groups + op.peer_group] + op.off_dst;
    for (int g = 0; g < NG; ++g) {
      __m256 r = _mm256_permutevar8x32_ps(win[0], idx[g]);
      const __m256i hi = _mm256_srli_epi32(idx[g], 3);
      for (int j = 1; j < WG; ++j) {
        const __m256i sel = _mm256_cmpeq_epi32(hi, _mm256_set1_epi32(j));
        r = _mm256_blendv_ps(r, _mm256_permutevar8x32_ps(win[j], idx[g]),
                             _mm256_castsi256_ps(sel));
      }
      if (static_cast<std::uint32_t>(g) < nfull) {
        _mm256_storeu_ps(d + 8 * g, r);
      } else {
        const __m256 old = _mm256_loadu_ps(d + 8 * g);
        _mm256_storeu_ps(d + 8 * g, _mm256_blendv_ps(old, r, m[g]));
      }
    }
  }
}

template <int NG>
void run_permute_ng(const AvxOp& op, const ExecCtx& ctx) {
  switch (op.wgroups) {
    case 1:
      permute_n<NG, 1>(op, ctx);
      break;
    case 2:
      permute_n<NG, 2>(op, ctx);
      break;
    case 3:
      permute_n<NG, 3>(op, ctx);
      break;
    case 4:
      permute_n<NG, 4>(op, ctx);
      break;
  }
}

void run_permute(const AvxOp& op, const ExecCtx& ctx) {
  switch (op.ngroups) {
    case 1:
      run_permute_ng<1>(op, ctx);
      break;
    case 2:
      run_permute_ng<2>(op, ctx);
      break;
    case 3:
      run_permute_ng<3>(op, ctx);
      break;
    case 4:
      run_permute_ng<4>(op, ctx);
      break;
  }
}

template <void (*Fn1)(const AvxOp&, float* const*, std::size_t, std::uint32_t),
          void (*Fn2)(const AvxOp&, float* const*, std::size_t, std::uint32_t),
          void (*Fn3)(const AvxOp&, float* const*, std::size_t, std::uint32_t),
          void (*Fn4)(const AvxOp&, float* const*, std::size_t, std::uint32_t)>
void run_sized(const AvxOp& op, float* const* ptrs, std::size_t n,
               std::uint32_t num_groups) {
  switch (op.ngroups) {
    case 1:
      Fn1(op, ptrs, n, num_groups);
      break;
    case 2:
      Fn2(op, ptrs, n, num_groups);
      break;
    case 3:
      Fn3(op, ptrs, n, num_groups);
      break;
    case 4:
      Fn4(op, ptrs, n, num_groups);
      break;
  }
}

}  // namespace

bool supported() { return __builtin_cpu_supports("avx2"); }

void exec(const AvxStream& stream, const ExecCtx& ctx) {
  const std::size_t n = ctx.elems.size();
  for (std::size_t oi = 0; oi < stream.ops.size(); ++oi) {
    const AvxOp& op = stream.ops[oi];
    switch (op.kind) {
      case AvxOp::Kind::Add:
        run_sized<add_n<1>, add_n<2>, add_n<3>, add_n<4>>(op, ctx.ptrs, n,
                                                          ctx.num_groups);
        break;
      case AvxOp::Kind::Scale:
        run_sized<scale_n<1>, scale_n<2>, scale_n<3>, scale_n<4>>(
            op, ctx.ptrs, n, ctx.num_groups);
        break;
      case AvxOp::Kind::Const:
        run_sized<const_n<1>, const_n<2>, const_n<3>, const_n<4>>(
            op, ctx.ptrs, n, ctx.num_groups);
        break;
      case AvxOp::Kind::Permute:
        run_permute(op, ctx);
        break;
      case AvxOp::Kind::ScaleAdd:
        run_sized<scale_add_n<1>, scale_add_n<2>, scale_add_n<3>,
                  scale_add_n<4>>(op, ctx.ptrs, n, ctx.num_groups);
        break;
      case AvxOp::Kind::AxpyPair:
        run_sized<axpy_pair_n<1>, axpy_pair_n<2>, axpy_pair_n<3>,
                  axpy_pair_n<4>>(op, ctx.ptrs, n, ctx.num_groups);
        break;
      case AvxOp::Kind::ChainScaleAdd:
        run_chain(&stream.ops[oi], ctx.ptrs, n, ctx.num_groups);
        break;
      case AvxOp::Kind::Chain2ScaleAdd:
        run_chain2(&stream.ops[oi], ctx.ptrs, n, ctx.num_groups);
        break;
      case AvxOp::Kind::Nop:
        break;
      case AvxOp::Kind::GatherMul:
        run_gather_mul<false>(op, ctx.ptrs, n, ctx.num_groups);
        break;
      case AvxOp::Kind::GatherMulAdd:
        run_gather_mul<true>(op, ctx.ptrs, n, ctx.num_groups);
        break;
      case AvxOp::Kind::Fallback:
        ctx.fallback(ctx, op.fallback_idx, ctx.fallback_ctx);
        break;
    }
  }
}

#else  // !WAVEPIM_AVX2_ENGINE

bool supported() { return false; }

void exec(const AvxStream&, const ExecCtx&) {
  WAVEPIM_REQUIRE(false, "AVX2 word engine not compiled in");
}

#endif

}  // namespace wavepim::mapping::wordavx
