#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "mapping/exec_plan.h"
#include "mapping/residency.h"
#include "mapping/word_avx2.h"
#include "pim/arith.h"

namespace wavepim::mapping {

/// Word-level execution engine — the second tier of the mapping layer's
/// ladder (compiled -> word).
///
/// The compiled tier already executes FP32 word arithmetic, but it pays
/// the bit-serial *structure*: one interpreter dispatch per op per
/// element on loops of ~9-27 rows, which profiling puts at 84-90% of the
/// compiled step time. This engine re-resolves each class's compiled
/// streams once more, into ops whose addressing is fully precomputed
/// (column offsets into `pim::Block::words()`, row lists classified into
/// contiguous / indexed shapes by `pim::word::classify_rows`), and
/// executes them **op-major over a run of same-class elements**: the
/// dispatch switch runs once per op per chunk. The host picks the
/// engine: on AVX2 hosts every stream carries a group-normalized mirror
/// that `wordavx::exec` runs (mapping/word_avx2.h); elsewhere the
/// portable executor walks the ops through the kernels of `pim/word.h`.
///
/// Kernels exist only for the op shapes the DG programs dispatch (12
/// codes, counted over every physics, element order 2-10, expansion
/// mode and boundary). Every other shape is a `Compiled` op that runs
/// its source `ExecutionPlan::Op` through `ExecutionPlan::run_op`, so a
/// new shape is correct before it is fast.
///
/// Bit-identity with the compiled tier (pinned end-to-end by the
/// conformance suites):
///
///  * every kernel evaluates the exact scalar expression of
///    `ExecutionPlan::run_op` in the same per-element iteration order —
///    plain C++ loops, so the compiler's vectorization cannot change
///    overlap semantics;
///  * fused kernels (fuse_stream passes 1-3 and 5) keep every
///    intermediate the bit-serial machine would store, except stores
///    pass 4 proves dead: overwritten later in the same stream before
///    any read. State is observed only after a stream completes, so
///    full-chip state hashes (not just final fields) match;
///  * reordering is only across elements, whose writes are disjoint
///    (flux reads neighbour *variable* columns, which the phase never
///    writes) — the same contract the parallel compiled fan-out uses;
///  * costs are not re-derived: each element applies the ExecutionPlan's
///    per-group OpCost aggregates — still priced in bit-serial NOR-cycle
///    terms — so ledgers, and every downstream cost channel, are
///    bit-identical by construction.
///
/// The compiled path is retained as the *witness* for this tier:
/// `PimSimulation`'s WitnessMode re-executes phases bit-serially on
/// shadow blocks and compares state hashes (see simulation.h).
///
/// Thread safety: `run_*` are const and touch only the ranged elements'
/// blocks (plus neighbour reads); callers fan out disjoint element
/// chunks. `integration()` memoises lazily and must be fetched before
/// the parallel region, like `ExecutionPlan::integration`.
class WordPlan {
 public:
  /// One word-resolved op. `code` fuses the op kind, the arithmetic
  /// opcode and the row-pattern shape, so execution switches once and
  /// runs a specialized loop. Offsets are pre-multiplied column bases
  /// into Block::words(); row-list pointers alias the program arena's
  /// interned tables, which the indexed shapes walk.
  struct WordOp {
    enum class Code : std::uint8_t {
      // Dispatched shapes: each has a kernel in exec_ops and pim/word.h.
      ScatterContig,
      Add,
      Scale,
      MoveContig,
      MoveIndexed,
      // Fused pairs (the peephole pass; see fuse_stream). Each keeps
      // the first op's intermediate store — scratch columns are part of
      // the hashed state — and forwards the value in a register.
      ScaleAdd,         ///< Fscale -> Fadd: mid = imm*a; dst = c2 + mid
      ScaleAddIndexed,
      AxpyPair,         ///< Faxpy -> Faxpy: d1 = i*d1+i2*a; d2 = i3*d2+i4*d1
      // Chain heads: `chain` consecutive ScaleAdd* ops folding into one
      // accumulator (off_c == off_d) through one scratch column
      // (off_dst). The head executes the whole run with the accumulator
      // in a register (pim/word.h chain kernels); the link ops stay in
      // the stream as data carriers (off_a / imm) and are skipped.
      ChainScaleAdd,
      ChainScaleAddIndexed,
      // Gather feeding its consumer: g(off_dst) = src(off_a)[rows];
      // then dst(off_d) = g * b(off_b), with GatherMulAdd additionally
      // accumulating acc(off_c) += g*b and keeping the product in
      // mid(off_d).
      GatherMul,
      GatherMulAdd,
      // Fusion inputs: IR tags the passes match on, with no kernel. One
      // that survives the passes unfused is rewritten to Compiled. Keep
      // them after every kernel code: the rewrite tests the order.
      GatherIndexed,  ///< distinct src/dst columns
      Mul,
      AddIndexed,
      ScaleIndexed,
      Axpy,
      MulAdd,  ///< Fmul -> Fadd pair (GatherMulAdd input); src is the Fmul
      /// Runs the source op `src` through ExecutionPlan::run_op, per
      /// element: every shape without a kernel.
      Compiled,
    };

    Code code = Code::Add;
    std::uint8_t group = 0;       ///< target block (source for Move)
    std::uint8_t peer_group = 0;  ///< Move destination block
    std::int8_t face = -1;        ///< Move source face (-1: own element)
    std::uint32_t off_a = 0;      ///< col_a * row extent
    std::uint32_t off_b = 0;
    std::uint32_t off_dst = 0;
    std::uint32_t start = 0;    ///< contiguous first row (rows_a)
    std::uint32_t start_b = 0;  ///< MoveContig destination first row
    std::uint32_t count = 0;
    /// Fused pairs only: the second op's remaining operand column and
    /// destination column (off_dst holds the first op's intermediate).
    std::uint32_t off_c = 0;
    std::uint32_t off_d = 0;
    /// Ops this op consumes from the stream: 1 for everything except
    /// Chain* heads, which execute themselves plus chain-1 link ops.
    std::uint16_t chain = 1;
    /// Paired chain head (fuse pass 5): non-zero = links per half. The
    /// head spans TWO chain runs of `chain2` links each over identical
    /// source columns; the second run's head (at offset `chain2`)
    /// carries the second accumulator (off_c), immediates and the live
    /// scratch-store skip bit. `chain` covers both runs.
    std::uint16_t chain2 = 0;
    /// Dead-store elision flags (fuse pass 4): the flagged secondary
    /// store is proven overwritten later in the SAME stream before any
    /// read, so skipping it is unobservable at phase granularity.
    /// kSkipMid: the fused intermediate (off_dst of ScaleAdd*/MulAdd/
    /// Chain*, off_d of GatherMulAdd). kSkipG: the gathered scratch
    /// column (off_dst of GatherMul/GatherMulAdd).
    static constexpr std::uint8_t kSkipMid = 1;
    static constexpr std::uint8_t kSkipG = 2;
    std::uint8_t skip = 0;
    float imm = 0.0f;
    float imm2 = 0.0f;
    float imm3 = 0.0f;  ///< AxpyPair: second op's immediates
    float imm4 = 0.0f;
    const std::uint32_t* rows_a = nullptr;
    const std::uint32_t* rows_b = nullptr;
    const float* values = nullptr;
    /// Constant forwarding (fuse pass 4): when set, operand b of a
    /// fused gather is read from this plan-owned constant table
    /// (indexed by row) instead of block storage — the column provably
    /// still holds exactly these scattered values when this op runs.
    /// Shared across every element, so the table stays cache-hot where
    /// per-element scratch columns would not.
    const float* b_values = nullptr;
    /// The compiled op this word op was resolved from (the first of a
    /// fused pair). Points into the ExecutionPlan's stream, which
    /// outlives the word plan.
    const ExecutionPlan::Op* src = nullptr;
  };

  /// One word-resolved stream; `group_cost` aliases the source compiled
  /// stream's aggregate list (never copied — shared accounting). On
  /// AVX2 hosts `avx` holds the group-normalized mirror of `ops` (same
  /// order, one AvxOp per WordOp), and run_stream executes the mirror
  /// whenever it is non-empty; the lane arenas own
  /// the precomputed masks / constants / permutation indices its ops
  /// point into. The arenas are heap buffers, so moving the stream
  /// keeps the aliasing pointers valid; they are never resized after
  /// compilation.
  struct WordStream {
    std::vector<WordOp> ops;
    const std::vector<std::pair<std::uint8_t, pim::OpCost>>* group_cost =
        nullptr;
    wordavx::AvxStream avx;
    std::vector<std::int32_t> lane_mask;
    std::vector<float> lane_values;
    std::vector<std::int32_t> lane_perm;
  };

  /// Elements per parallel task of the word fan-out: enough to amortize
  /// the per-op dispatch across the chunk, small enough to keep the
  /// chunk's block storage in cache and the fan-out load-balanced.
  static constexpr std::size_t kChunk = 32;

  /// Compiles every class stream of `plan` (which must outlive this
  /// object, along with the cache arena beneath it).
  explicit WordPlan(ExecutionPlan& plan);

  /// Executes a phase over `elems` (any mix of classes; split into
  /// same-class runs internally): the word ops of each element, then its
  /// batched per-block cost aggregates.
  void run_volume(const BlockResolver& blocks,
                  std::span<const mesh::ElementId> elems) const;
  void run_flux_group(const BlockResolver& blocks,
                      std::span<const mesh::ElementId> elems,
                      FaceGroup group) const;
  /// Runs any compiled stream (an integration stage, or one stream of
  /// a class) over `elems`: through its AVX2 mirror when it carries
  /// one, else through the portable kernels. Elements of a class stream
  /// must all be of that class.
  void run_stream(const BlockResolver& blocks,
                  std::span<const mesh::ElementId> elems,
                  const WordStream& stream) const;

  /// Word-resolves one compiled stream (which must outlive the result):
  /// the entry every class and integration stream takes, exposed so
  /// tests can feed op shapes no DG program emits. Not thread-safe.
  [[nodiscard]] WordStream compile(const ExecutionPlan::StreamPlan& stream);

  /// Word-resolved Integration stream for (stage, dt); lowers through
  /// the ExecutionPlan's memoised stream on first request. Not
  /// thread-safe: fetch before fanning out.
  const WordStream& integration(int stage, float dt);

  /// Cumulative peephole-fusion counters across every stream this plan
  /// has compiled (volume + flux at construction, integration stages as
  /// they are first requested).
  struct FuseStats {
    std::uint64_t ops_before = 0;  ///< word ops entering the peephole
    std::uint64_t ops_after = 0;   ///< dispatched ops after all passes
    std::uint64_t scale_add = 0;   ///< fused Fscale->Fadd pairs
    std::uint64_t mul_add = 0;     ///< fused Fmul->Fadd pairs
    std::uint64_t axpy_pair = 0;   ///< fused Faxpy->Faxpy pairs
    std::uint64_t chains = 0;      ///< ScaleAdd runs collapsed to heads
    std::uint64_t chain_links = 0; ///< total links inside those runs
    std::uint64_t chain_pairs = 0; ///< chain pairs merged (dual acc)
    std::uint64_t gather_fused = 0;  ///< gathers folded into consumers
    std::uint64_t dead_stores = 0;   ///< scratch stores elided (pass 4)
    std::uint64_t compiled = 0;      ///< ops routed to Compiled
  };
  [[nodiscard]] const FuseStats& fuse_stats() const { return fuse_stats_; }

  /// Introspection for the differential tests and tools: the compiled
  /// per-class streams.
  [[nodiscard]] std::uint32_t num_classes() const {
    return static_cast<std::uint32_t>(classes_.size());
  }
  [[nodiscard]] const WordStream& volume_stream(std::uint32_t cls) const {
    return classes_[cls].volume;
  }
  [[nodiscard]] const WordStream& flux_stream(std::uint32_t cls,
                                              FaceGroup group) const {
    return classes_[cls].flux[static_cast<std::size_t>(group)];
  }

 private:
  struct ClassStreams {
    WordStream volume;
    std::array<WordStream, kNumFaceGroups> flux;
  };

  /// Peephole passes over a freshly compiled op vector: (1) merges
  /// adjacent (Fscale|Fmul)->Fadd and Faxpy->Faxpy pairs whose second op
  /// consumes the first op's destination over the identical row set
  /// (indexed rows additionally verified duplicate-free), (2) folds
  /// gathers into their consumer, (3) collapses ScaleAdd runs into chain
  /// heads, (4) elides dead scratch stores and (5) pairs chains. Any op
  /// still without a kernel is then rewritten to Compiled. Updates
  /// fuse_stats_ and the word.fuse trace counters.
  void fuse_stream(std::vector<WordOp>& ops);
  /// Group-normalizes `s.ops` into `s.avx` (see word_avx2.h); Compiled
  /// ops, ops whose windows exceed the engine's 4-group kernels and ops
  /// the group form cannot express bit-identically become Fallback
  /// entries.
  void build_avx(WordStream& s) const;
  /// Applies `fn(run, class_streams)` to each maximal same-class run.
  template <typename Fn>
  void for_class_runs(std::span<const mesh::ElementId> elems, Fn&& fn) const;

  ExecutionPlan& plan_;
  std::uint32_t num_groups_;
  std::uint32_t rows_;  ///< the plan's row extent (column stride, bound)
  /// Element-major blocking: run_stream slices each kChunk fan-out task
  /// into sub-chunks of this many elements and runs the *whole* kernel
  /// stream per sub-chunk, keeping the slice's columns L1-resident
  /// across ops. Pure execution-order change across elements, whose
  /// writes are disjoint: bit-identity is untouched.
  static constexpr std::uint32_t kBlockElems = 8;
  FuseStats fuse_stats_;
  std::vector<ClassStreams> classes_;
  /// Per element: class id and absolute block base, copied out of the
  /// plan once for locality in the per-chunk loops.
  std::vector<std::uint32_t> class_of_;
  std::vector<std::uint32_t> base_of_;
  std::map<std::pair<int, std::uint32_t>, WordStream> integration_;
};

}  // namespace wavepim::mapping
