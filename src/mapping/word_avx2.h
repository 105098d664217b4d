#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mapping/sinks.h"

namespace wavepim::mapping {

class ExecutionPlan;

/// AVX2 execution engine for the word tier. The host alone selects it:
/// `WordPlan` builds a stream's AVX2 mirror only when
/// `wordavx::supported()` holds, and runs every stream that carries one
/// here. Streams without a mirror run the portable kernels of
/// `pim/word.h`, which are also this engine's fallback. No setting
/// overrides the choice.
///
/// Why hand-rolled vectors: the compiled row lists are 9-27 rows long,
/// and at that trip count the autovectorizer's runtime alias checks,
/// prologues and scalar tails cost more than the arithmetic — and its
/// if-conversion refuses the masked stores the irregular face-node
/// patterns need. The engine instead normalizes every op at plan-build
/// time into 1-4 8-lane groups over a contiguous row window (32 rows
/// hold every window of an n1d <= 3 element):
///
///  * compute ops (add/scale/const and the fused forms) evaluate the
///    full window and keep non-member lanes at their old value with a
///    precomputed lane mask and a blend-store;
///  * movement ops (moves, and the gathers inside GatherMul*) load the
///    whole source window into registers first — which reproduces the
///    compiled tier's staging semantics for free — then route lanes
///    with a vpermps select network driven by precomputed lane indices.
///
/// Bit-identity with the scalar kernels is structural: each written
/// lane is produced by exactly one IEEE operation on the same operands
/// (AVX2 add/mul round identically to their scalar forms, the TU is
/// compiled without FMA so nothing can contract), masked-off lanes are
/// rewritten with the bytes they already hold. Every other op — each
/// Compiled op, and each op whose window spans more than 4 groups or
/// more rows than the block holds — becomes a Fallback op and runs its
/// portable pim/word.h kernel in stream position. WordPlan::build_avx
/// decides this once per op; the executor never checks a width.
namespace wordavx {

/// One group-normalized op. Arena pointers (mask/values/perm) alias
/// storage owned by the enclosing WordPlan; they hold `ngroups * 8`
/// lanes each, of which the first `nfull` groups are dense (all lanes
/// written, no mask or blend needed).
struct AvxOp {
  enum class Kind : std::uint8_t {
    Add,      ///< dst = a + b over the window
    Scale,    ///< dst = imm * a
    Const,    ///< dst = values (scatter of plan constants)
    Permute,  ///< dst lanes select from a <=32-float source window
    Fallback, ///< run WordOp [fallback_idx] of the mirror stream through
              ///< the portable kernels (Compiled ops, windows > 4 groups)
    // Fused pairs (see WordPlan::fuse_stream). The first op's result is
    // still stored (scratch columns are hashed state) and forwarded in a
    // register to the second op, whose remaining operand is off_c and
    // whose destination is off_d. All columns share the destination row
    // window, so group alignment makes every aliasing case resolve in
    // the scalar kernels' order.
    ScaleAdd,  ///< mid(off_dst) = imm * a; d(off_d) = c(off_c) + mid
    AxpyPair,  ///< d1(off_dst) = imm*d1 + imm2*a;
               ///< d2(off_c)   = imm3*d2 + imm4*d1
    // Chain head: `chain` consecutive ScaleAdd links into one in-place
    // accumulator (off_c) through one scratch column (off_dst). The
    // links follow as Nop entries whose off_a / imm the head reads; the
    // accumulator rides in a register and only the LAST link's scratch
    // store lands (bit-legal — see WordPlan::fuse_stream pass 3).
    ChainScaleAdd,
    // Paired chain head (fuse pass 5): `chain2` links per half, two
    // accumulators (off_c / off_b) fed from one pass over the shared
    // source columns. Entries [1, chain) follow as Nops; entry
    // [chain2 + j] carries the second half's immediate for link j.
    Chain2ScaleAdd,
    Nop,  ///< chain link data carrier — executes nothing
    // Gather feeding its consumer, over the Permute select network:
    // g(off_dst) = src(off_a)[perm]; prod = g * b(off_b); GatherMul
    // stores prod to off_d; GatherMulAdd stores prod to mid(off_d) and
    // acc(off_c) = acc + prod.
    GatherMul,
    GatherMulAdd,
  };

  Kind kind = Kind::Add;
  std::uint8_t group = 0;       ///< block group of dst (src for Permute)
  std::uint8_t peer_group = 0;  ///< Permute dst block group
  std::int8_t face = -1;        ///< Permute src face (-1: own element)
  std::uint16_t nfull = 0;      ///< leading dense 8-lane groups
  std::uint16_t ngroups = 0;    ///< total 8-lane groups, 1-4
  std::uint16_t wgroups = 0;    ///< Permute/GatherMul* source groups, 1-4
  std::uint32_t off_a = 0;      ///< col*extent + window base of operand a
  std::uint32_t off_b = 0;
  std::uint32_t off_dst = 0;
  std::uint32_t off_c = 0;  ///< fused: second op's other operand column
  std::uint32_t off_d = 0;  ///< fused: second op's destination column
  std::uint32_t fallback_idx = 0;
  /// Stream entries this op spans: 1 except Chain*ScaleAdd heads (their
  /// Nop links included) and Fallback ops mirroring a scalar chain head.
  std::uint16_t chain = 1;
  /// Chain2ScaleAdd only: links per half (chain == 2 * chain2); the
  /// second accumulator's window offset rides in off_b.
  std::uint16_t chain2 = 0;
  /// Dead-store elision flags copied from the mirror WordOp (see
  /// WordPlan::WordOp::kSkipMid / kSkipG): bit 0 skips the fused
  /// intermediate store, bit 1 the gathered-scratch store.
  std::uint8_t skip = 0;
  float imm = 0.0f;
  float imm2 = 0.0f;
  float imm3 = 0.0f;  ///< AxpyPair: second op's immediates
  float imm4 = 0.0f;
  const std::int32_t* mask = nullptr;  ///< -1 write / 0 keep, per lane
  /// Const lane values; for GatherMul/GatherMulAdd, a non-null value is
  /// the forwarded constant-b lane table (see WordOp::b_values).
  const float* values = nullptr;
  const std::int32_t* perm = nullptr;  ///< Permute source lane in [0,32)
};

struct AvxStream {
  std::vector<AvxOp> ops;
};

/// Everything the executor needs per run. `fallback` executes one
/// WordOp of the mirror stream across the whole element range through
/// the portable kernels (no op of an n1d <= 3 DG program needs it).
struct ExecCtx {
  const BlockResolver* blocks = nullptr;
  const ExecutionPlan* plan = nullptr;
  std::span<const mesh::ElementId> elems;
  float* const* ptrs = nullptr;
  std::uint32_t num_groups = 0;
  void (*fallback)(const ExecCtx&, std::uint32_t fallback_idx,
                   const void* fallback_ctx) = nullptr;
  const void* fallback_ctx = nullptr;
};

/// True when the running CPU executes AVX2 (and the library was built
/// with the engine compiled in).
[[nodiscard]] bool supported();

/// Executes `stream` over the context's element range, op-major.
void exec(const AvxStream& stream, const ExecCtx& ctx);

}  // namespace wordavx
}  // namespace wavepim::mapping
