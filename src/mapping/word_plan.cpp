#include "mapping/word_plan.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/error.h"
#include "pim/block.h"
#include "pim/word.h"
#include "trace/trace.h"

namespace wavepim::mapping {

namespace {

using Code = WordPlan::WordOp::Code;
using ExecOp = ExecutionPlan::Op;
using pim::word::RowPattern;

constexpr std::uint32_t kRows = pim::Block::kRows;

/// Longest ScaleAdd run a chain head may absorb (the flux programs
/// produce runs of 4; the cap only bounds the executor's stack arrays).
constexpr std::uint32_t kMaxChain = 16;

/// True when no row repeats — the precondition for interleaving two
/// fused ops' per-row bodies (see the fused-kernel comment in
/// pim/word.h). kRows-bit stack bitmap; plan-build time only.
bool rows_distinct(const std::uint32_t* rows, std::uint32_t n) {
  std::array<std::uint64_t, kRows / 64> seen{};
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = rows[i];
    if (r >= kRows) {
      return false;
    }
    std::uint64_t& word = seen[r >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (r & 63U);
    if ((word & bit) != 0) {
      return false;
    }
    word |= bit;
  }
  return true;
}

/// The code for an op of row shape `kind`; Compiled for a shape no
/// kernel covers.
Code shaped(RowPattern::Kind kind, Code contig,
            Code indexed = Code::Compiled) {
  return kind == RowPattern::Kind::Contiguous ? contig : indexed;
}

/// Kernel codes and Compiled execute; the IR tags between them only
/// feed the fusion passes.
bool executable(Code code) {
  return code < Code::GatherIndexed || code == Code::Compiled;
}

}  // namespace

WordPlan::WordPlan(ExecutionPlan& plan)
    : plan_(plan), num_groups_(plan.num_groups()), rows_(plan.row_extent()) {
  classes_.reserve(plan.num_classes());
  for (std::uint32_t cls = 0; cls < plan.num_classes(); ++cls) {
    ClassStreams cs;
    cs.volume = compile(plan.volume_plan(cls));
    for (std::uint32_t g = 0; g < kNumFaceGroups; ++g) {
      cs.flux[g] = compile(plan.flux_plan(cls, static_cast<FaceGroup>(g)));
    }
    classes_.push_back(std::move(cs));
  }
  const std::uint32_t n = plan.num_elements();
  class_of_.resize(n);
  base_of_.resize(n);
  for (std::uint32_t e = 0; e < n; ++e) {
    class_of_[e] = plan.class_of(e);
    base_of_[e] = plan.block_base(e);
  }
}

WordPlan::WordStream WordPlan::compile(
    const ExecutionPlan::StreamPlan& stream) {
  WordStream out;
  out.group_cost = &stream.group_cost;
  out.ops.reserve(stream.ops.size());
  for (const ExecOp& op : stream.ops) {
    ExecutionPlan::check_rows(op, rows_);
    WordOp w;
    w.group = op.group;
    w.peer_group = op.peer_group;
    w.face = op.face;
    w.off_a = op.col_a * rows_;
    w.off_b = op.col_b * rows_;
    w.off_dst = op.col_dst * rows_;
    w.count = op.count;
    w.imm = op.imm;
    w.imm2 = op.imm2;
    w.rows_a = op.rows_a;
    w.rows_b = op.rows_b;
    w.values = op.values;
    w.src = &op;
    const auto rows_a = std::span<const std::uint32_t>(
        op.rows_a, op.rows_a != nullptr ? op.count : 0);
    const RowPattern p = pim::word::classify_rows(rows_a);
    w.start = p.start;
    switch (op.kind) {
      case ExecOp::Kind::Scatter:
        w.code = shaped(p.kind, Code::ScatterContig);
        break;
      case ExecOp::Kind::Gather:
        // The compiled gather stages reads before writes; with distinct
        // columns there is no overlap, so the fused gather kernels may
        // read and write directly. Same-column gathers stay compiled.
        w.code = p.kind == RowPattern::Kind::Indexed && w.off_a != w.off_dst
                     ? Code::GatherIndexed
                     : Code::Compiled;
        break;
      case ExecOp::Kind::Arith:
      case ExecOp::Kind::ArithRows:
        w.code = op.opcode == pim::Opcode::Fadd
                     ? shaped(p.kind, Code::Add, Code::AddIndexed)
                 : op.opcode == pim::Opcode::Fmul ? shaped(p.kind, Code::Mul)
                                                  : Code::Compiled;
        break;
      case ExecOp::Kind::Fscale:
      case ExecOp::Kind::FscaleRows:
        w.code = shaped(p.kind, Code::Scale, Code::ScaleIndexed);
        break;
      case ExecOp::Kind::Faxpy:
        w.code = Code::Axpy;
        break;
      case ExecOp::Kind::Move: {
        const RowPattern pb = pim::word::classify_rows(
            std::span<const std::uint32_t>(op.rows_b, op.count));
        w.start_b = pb.start;
        // Source and destination may be the same physical column (same
        // element, or a periodic self-neighbour): only the scalar-order
        // indexed kernel reproduces the compiled loop's overlap
        // semantics. MoveContig is then provably disjoint and free to
        // assert WAVEPIM_IVDEP.
        const bool same_col = op.group == op.peer_group && w.off_a == w.off_dst;
        w.code = !same_col && p.kind == RowPattern::Kind::Contiguous &&
                         pb.kind == RowPattern::Kind::Contiguous
                     ? Code::MoveContig
                     : Code::MoveIndexed;
        break;
      }
    }
    out.ops.push_back(w);
  }
  fuse_stream(out.ops);
  if (wordavx::supported()) {
    build_avx(out);
  }
  return out;
}

void WordPlan::fuse_stream(std::vector<WordOp>& ops) {
  const std::size_t before = ops.size();
  const std::uint64_t dead0 = fuse_stats_.dead_stores;
  const std::uint64_t pairs0 = fuse_stats_.chain_pairs;
  fuse_stats_.ops_before += before;
  if (ops.size() >= 2) {
    // Shape equality: both ops must walk the same row set in the same
    // order, so one fused iteration touches row r_i of every column
    // exactly once.
    const auto same_contig = [](const WordOp& p, const WordOp& q) {
      return p.start == q.start && p.count == q.count;
    };
    // Indexed lists are interned in the program arena, so pointer
    // equality identifies the identical list; distinctness is the extra
    // obligation contiguous runs satisfy by construction.
    const auto same_indexed = [](const WordOp& p, const WordOp& q) {
      return p.rows_a == q.rows_a && p.count == q.count &&
             rows_distinct(p.rows_a, p.count);
    };
    // The accumulate shape: q reads p's destination as its SECOND
    // operand (matching the kernels' `other + mid` source order; which
    // of two NaN operands an add returns is still the compiler's choice,
    // so NaN payloads are outside the contract, see canonical_bits) and
    // p's destination is not also q's first operand.
    const auto accumulates = [](const WordOp& p, const WordOp& q) {
      return q.off_b == p.off_dst && q.off_a != p.off_dst;
    };

    std::vector<WordOp> out;
    out.reserve(ops.size());
    std::size_t i = 0;
    while (i < ops.size()) {
      const WordOp& p = ops[i];
      if (i + 1 < ops.size()) {
        const WordOp& q = ops[i + 1];
        if (q.group == p.group) {
          Code fused = Code::Add;
          bool hit = false;
          if (p.code == Code::Scale && q.code == Code::Add &&
              accumulates(p, q) && same_contig(p, q)) {
            fused = Code::ScaleAdd;
            hit = true;
            ++fuse_stats_.scale_add;
          } else if (p.code == Code::ScaleIndexed &&
                     q.code == Code::AddIndexed && accumulates(p, q) &&
                     same_indexed(p, q)) {
            fused = Code::ScaleAddIndexed;
            hit = true;
            ++fuse_stats_.scale_add;
          } else if (p.code == Code::Mul && q.code == Code::Add &&
                     accumulates(p, q) && same_contig(p, q)) {
            fused = Code::MulAdd;
            hit = true;
            ++fuse_stats_.mul_add;
          } else if (p.code == Code::Axpy && q.code == Code::Axpy &&
                     q.off_a == p.off_dst && p.count == q.count) {
            // The RK chain: q's source is p's freshly written register.
            fused = Code::AxpyPair;
            hit = true;
            ++fuse_stats_.axpy_pair;
          }
          if (hit) {
            WordOp f = p;
            f.code = fused;
            if (fused == Code::AxpyPair) {
              f.off_c = q.off_dst;
              f.imm3 = q.imm;
              f.imm4 = q.imm2;
            } else {
              f.off_c = q.off_a;   // the accumulate's other operand
              f.off_d = q.off_dst; // the accumulate's destination
            }
            out.push_back(f);
            i += 2;
            continue;
          }
        }
      }
      out.push_back(p);
      ++i;
    }
    ops = std::move(out);

    // Pass 2 — gathers feeding their consumer: GatherIndexed writes a
    // scratch column the very next (Mul | MulAdd) reads as its FIRST
    // operand over the same contiguous row range. The fused kernel
    // forwards the gathered value in a register (the scratch store
    // stays — hashed state). Obligations, per the kernel comments in
    // pim/word.h: the gather source column must be disjoint from every
    // column the pair writes (its reads hit arbitrary rows), and the
    // consumer's other operands must not alias the gather destination
    // (they are loaded before the unfused gather's store would land).
    {
      std::vector<WordOp> out2;
      out2.reserve(ops.size());
      std::size_t j = 0;
      while (j < ops.size()) {
        const WordOp& p = ops[j];
        if (j + 1 < ops.size() && p.code == Code::GatherIndexed) {
          const WordOp& q = ops[j + 1];
          const bool same_range = q.group == p.group && q.start == 0 &&
                                  q.count == p.count;
          if (same_range && q.code == Code::Mul && q.off_a == p.off_dst &&
              q.off_b != p.off_dst && p.off_a != p.off_dst &&
              p.off_a != q.off_dst) {
            WordOp f = p;
            f.code = Code::GatherMul;
            f.off_b = q.off_b;
            f.off_d = q.off_dst;
            out2.push_back(f);
            ++fuse_stats_.gather_fused;
            j += 2;
            continue;
          }
          if (same_range && q.code == Code::MulAdd &&
              q.off_a == p.off_dst && q.off_b != p.off_dst &&
              q.off_c == q.off_d && q.off_c != p.off_dst &&
              p.off_a != p.off_dst && p.off_a != q.off_dst &&
              p.off_a != q.off_c) {
            WordOp f = p;
            f.code = Code::GatherMulAdd;
            f.off_b = q.off_b;
            f.off_c = q.off_c;    // in-place accumulator
            f.off_d = q.off_dst;  // the product's scratch column
            out2.push_back(f);
            ++fuse_stats_.gather_fused;
            j += 2;
            continue;
          }
        }
        out2.push_back(p);
        ++j;
      }
      ops = std::move(out2);
    }

    // Pass 3 — accumulation chains: a run of identical-shape ScaleAdd
    // ops folding into ONE in-place accumulator (off_c == off_d)
    // through ONE scratch column becomes a chain head that keeps the
    // accumulator in a register across the run and stores only the last
    // link's product (earlier stores are dead: no link source may alias
    // the scratch or accumulator column, checked here, and state is
    // only observed at phase end). Links stay in the stream as data
    // carriers; `chain` tells the executor how many ops the head eats.
    {
      std::size_t j = 0;
      while (j < ops.size()) {
        WordOp& p = ops[j];
        const bool head_shape = (p.code == Code::ScaleAdd ||
                                 p.code == Code::ScaleAddIndexed) &&
                                p.off_c == p.off_d &&
                                p.off_a != p.off_dst && p.off_a != p.off_c;
        if (!head_shape) {
          ++j;
          continue;
        }
        std::size_t e = j + 1;
        while (e < ops.size() && e - j < kMaxChain) {
          const WordOp& q = ops[e];
          if (q.code != p.code || q.group != p.group ||
              q.count != p.count || q.start != p.start ||
              q.rows_a != p.rows_a ||
              q.off_dst != p.off_dst || q.off_c != p.off_c ||
              q.off_d != p.off_d || q.off_a == q.off_dst ||
              q.off_a == q.off_c) {
            break;
          }
          ++e;
        }
        const std::size_t len = e - j;
        if (len >= 2) {
          p.chain = static_cast<std::uint16_t>(len);
          p.code = p.code == Code::ScaleAdd ? Code::ChainScaleAdd
                                            : Code::ChainScaleAddIndexed;
          ++fuse_stats_.chains;
          fuse_stats_.chain_links += len;
        }
        j = e;
      }
    }

    // Pass 4 — dead scratch stores. A fused op's secondary store (the
    // forwarded intermediate, or the gathered value) is unobservable
    // when a later op of this SAME stream fully overwrites those rows
    // before anything reads the column: hashes, the witness and the
    // residency stores all observe state only after the stream
    // completes. The scan is conservative — any later read of the
    // column keeps the store, and only a same-shape (or contiguous
    // superset) overwrite confirms elision. Covering stores that are
    // themselves elided stay sound by transitivity: their own elision
    // required an identical-or-wider overwrite further down.
    {
      struct RowShape {
        std::uint32_t start;
        std::uint32_t count;
        const std::uint32_t* rows;
      };
      const auto covers = [](const RowShape& w, const RowShape& s) {
        if (w.rows != nullptr || s.rows != nullptr) {
          // Row lists are interned: pointer identity pins the rows.
          return w.rows == s.rows && w.count == s.count;
        }
        return w.start <= s.start && w.start + w.count >= s.start + s.count;
      };
      const auto own_shape = [](const WordOp& q) -> RowShape {
        return {q.start, q.count, q.rows_a};
      };
      const auto contig_shape = [](const WordOp& q) -> RowShape {
        return {0, q.count, nullptr};
      };

      // Does ops[j] (with its chain links) read column (g, c)? Moves
      // conservatively count their source column against our element
      // even when it is a neighbour's block. A Compiled op counts as
      // reading every column and (below) fully overwriting none.
      const auto reads_col = [&ops](std::size_t j, std::uint8_t g,
                                    std::uint32_t c) -> bool {
        const WordOp& q = ops[j];
        const auto r = [&](std::uint8_t qg, std::uint32_t qc) {
          return qg == g && qc == c;
        };
        switch (q.code) {
          case Code::ScatterContig:
            return false;
          case Code::GatherIndexed:
          case Code::MoveContig:
          case Code::MoveIndexed:
            return r(q.group, q.off_a);
          case Code::Add:
          case Code::Mul:
          case Code::AddIndexed:
            return r(q.group, q.off_a) || r(q.group, q.off_b);
          case Code::GatherMul:
            // A forwarded b operand reads the plan's constant table,
            // not the column.
            return r(q.group, q.off_a) ||
                   (q.b_values == nullptr && r(q.group, q.off_b));
          case Code::Scale:
          case Code::ScaleIndexed:
            return r(q.group, q.off_a);
          case Code::Axpy:
            return r(q.group, q.off_a) || r(q.group, q.off_dst);
          case Code::ScaleAdd:
          case Code::ScaleAddIndexed:
            return r(q.group, q.off_a) || r(q.group, q.off_c);
          case Code::MulAdd:
            return r(q.group, q.off_a) || r(q.group, q.off_b) ||
                   r(q.group, q.off_c);
          case Code::GatherMulAdd:
            return r(q.group, q.off_a) ||
                   (q.b_values == nullptr && r(q.group, q.off_b)) ||
                   r(q.group, q.off_c);
          case Code::AxpyPair:
            return r(q.group, q.off_a) || r(q.group, q.off_dst) ||
                   r(q.group, q.off_c);
          case Code::ChainScaleAdd:
          case Code::ChainScaleAddIndexed: {
            if (r(q.group, q.off_c)) {
              return true;
            }
            for (std::uint32_t l = 0; l < q.chain; ++l) {
              if (r(q.group, ops[j + l].off_a)) {
                return true;
              }
            }
            return false;
          }
          case Code::Compiled:
            return true;
        }
        return false;
      };

      // Does ops[j] fully overwrite (g, c) with a shape covering `s`?
      const auto overwrites = [&](std::size_t j, std::uint8_t g,
                                  std::uint32_t c, const RowShape& s) {
        const WordOp& q = ops[j];
        const auto w = [&](std::uint8_t qg, std::uint32_t qc,
                           const RowShape& qs) {
          return qg == g && qc == c && covers(qs, s);
        };
        switch (q.code) {
          case Code::ScatterContig:
          case Code::Add:
          case Code::Mul:
          case Code::AddIndexed:
          case Code::Scale:
          case Code::ScaleIndexed:
            return w(q.group, q.off_dst, own_shape(q));
          case Code::GatherIndexed:
          case Code::Axpy:
            return w(q.group, q.off_dst, contig_shape(q));
          case Code::MoveContig:
          case Code::MoveIndexed:
            return w(q.peer_group, q.off_dst,
                     RowShape{q.start_b, q.count, q.rows_b});
          case Code::ScaleAdd:
          case Code::ScaleAddIndexed:
          case Code::MulAdd:
          case Code::ChainScaleAdd:
          case Code::ChainScaleAddIndexed:
            return w(q.group, q.off_dst, own_shape(q)) ||
                   w(q.group, q.off_d, own_shape(q));
          case Code::AxpyPair:
            return w(q.group, q.off_dst, contig_shape(q)) ||
                   w(q.group, q.off_c, contig_shape(q));
          case Code::GatherMul:
            return w(q.group, q.off_dst, contig_shape(q)) ||
                   w(q.group, q.off_d, contig_shape(q));
          case Code::GatherMulAdd:
            return w(q.group, q.off_dst, contig_shape(q)) ||
                   w(q.group, q.off_d, contig_shape(q)) ||
                   w(q.group, q.off_c, contig_shape(q));
          case Code::Compiled:
            return false;
        }
        return false;
      };

      // Does ops[j] write column (g, c) at all (any shape)? Used by the
      // constant-forwarding scan, which must stop at even a partial
      // write — the column would no longer hold the scattered table.
      const auto writes_any = [&](std::size_t j, std::uint8_t g,
                                  std::uint32_t c) {
        const WordOp& q = ops[j];
        const auto w = [&](std::uint8_t qg, std::uint32_t qc) {
          return qg == g && qc == c;
        };
        switch (q.code) {
          case Code::ScatterContig:
          case Code::GatherIndexed:
          case Code::Add:
          case Code::Mul:
          case Code::AddIndexed:
          case Code::Scale:
          case Code::ScaleIndexed:
          case Code::Axpy:
            return w(q.group, q.off_dst);
          case Code::MoveContig:
          case Code::MoveIndexed:
            return w(q.peer_group, q.off_dst);
          case Code::ScaleAdd:
          case Code::ScaleAddIndexed:
          case Code::MulAdd:
          case Code::ChainScaleAdd:
          case Code::ChainScaleAddIndexed:
            return w(q.group, q.off_dst) || w(q.group, q.off_d);
          case Code::AxpyPair:
            return w(q.group, q.off_dst) || w(q.group, q.off_c);
          case Code::GatherMul:
            return w(q.group, q.off_dst) || w(q.group, q.off_d);
          case Code::GatherMulAdd:
            return w(q.group, q.off_dst) || w(q.group, q.off_d) ||
                   w(q.group, q.off_c);
          case Code::Compiled:
            return true;
        }
        return false;
      };

      // Constant forwarding: a ScatterContig writes a static plan table
      // into a scratch column, and the fused gathers re-read it as
      // operand b every element. Until the next write to that column
      // the block bytes ARE the table, so those reads can come straight
      // from the plan's interned values — shared across elements, hot
      // in cache — without touching state. This also unblocks the
      // dead-store scan below: a scatter whose readers were all
      // forwarded and whose rows a later scatter fully overwrites is
      // unobservable and dropped from the stream entirely.
      for (std::size_t j = 0; j < ops.size(); j += ops[j].chain) {
        const WordOp& sc = ops[j];
        if (sc.code != Code::ScatterContig || sc.start != 0) {
          continue;
        }
        for (std::size_t k = j + ops[j].chain; k < ops.size();
             k += ops[k].chain) {
          WordOp& q = ops[k];
          if ((q.code == Code::GatherMul || q.code == Code::GatherMulAdd) &&
              q.group == sc.group && q.off_b == sc.off_dst &&
              q.b_values == nullptr && q.count <= sc.count) {
            q.b_values = sc.values;
          }
          if (writes_any(k, sc.group, sc.off_dst)) {
            break;
          }
        }
      }

      struct Cand {
        std::uint32_t col;
        RowShape shape;
        std::uint8_t bit;
      };
      // kDrop marks a whole op (a scatter whose store is its only
      // effect) for removal rather than a skip flag inside a kernel.
      constexpr std::uint8_t kDrop = 0x80;
      bool any_drop = false;
      std::size_t i4 = 0;
      while (i4 < ops.size()) {
        WordOp& p = ops[i4];
        std::array<Cand, 2> cands;
        int nc = 0;
        switch (p.code) {
          case Code::ScaleAdd:
          case Code::ScaleAddIndexed:
          case Code::MulAdd:
          case Code::ChainScaleAdd:
          case Code::ChainScaleAddIndexed:
            cands[nc++] = {p.off_dst, own_shape(p), WordOp::kSkipMid};
            break;
          case Code::GatherMul:
            cands[nc++] = {p.off_dst, contig_shape(p), WordOp::kSkipG};
            break;
          case Code::GatherMulAdd:
            cands[nc++] = {p.off_dst, contig_shape(p), WordOp::kSkipG};
            cands[nc++] = {p.off_d, contig_shape(p), WordOp::kSkipMid};
            break;
          case Code::ScatterContig:
            cands[nc++] = {p.off_dst, own_shape(p), kDrop};
            break;
          default:
            break;
        }
        for (int ci = 0; ci < nc; ++ci) {
          for (std::size_t j = i4 + p.chain; j < ops.size();
               j += ops[j].chain) {
            if (reads_col(j, p.group, cands[ci].col)) {
              break;
            }
            if (overwrites(j, p.group, cands[ci].col, cands[ci].shape)) {
              p.skip |= cands[ci].bit;
              any_drop |= cands[ci].bit == kDrop;
              ++fuse_stats_.dead_stores;
              break;
            }
          }
        }
        i4 += p.chain;
      }
      if (any_drop) {
        std::vector<WordOp> kept;
        kept.reserve(ops.size());
        for (const WordOp& q : ops) {
          if ((q.skip & kDrop) == 0) {
            kept.push_back(q);
          }
        }
        ops = std::move(kept);
      }
    }

    // Pass 5 — chain pairing. The flux programs emit chains in PAIRS:
    // two adjacent same-shape runs over the IDENTICAL source columns,
    // folding into two different accumulators (one per flux component).
    // Merging them into one dual-accumulator head loads every source
    // row once and feeds both register accumulators. Bit-legal because
    // nothing any link reads is written by either chain — both
    // accumulators and the shared scratch are pairwise-distinct columns
    // disjoint from every source — so interleaving the two runs per row
    // preserves each accumulator's IEEE sequence exactly. The first
    // head's scratch store must already be elided (pass 4 proves it:
    // the second run overwrites the same rows), leaving the second
    // run's store as the only live one; its head keeps carrying the
    // second accumulator, immediates and skip bit as data.
    {
      std::size_t j5 = 0;
      while (j5 < ops.size()) {
        WordOp& p = ops[j5];
        const bool head = p.code == Code::ChainScaleAdd ||
                          p.code == Code::ChainScaleAddIndexed;
        const std::size_t k = p.chain;
        const std::size_t bj = j5 + k;
        if (!head || (p.skip & WordOp::kSkipMid) == 0 ||
            bj >= ops.size()) {
          j5 += k;
          continue;
        }
        const WordOp& q = ops[bj];
        bool match = q.code == p.code && q.chain == p.chain &&
                     q.group == p.group && q.count == p.count &&
                     q.start == p.start && q.rows_a == p.rows_a &&
                     q.off_dst == p.off_dst &&
                     q.off_c != p.off_c && q.off_c != p.off_dst &&
                     p.off_c != p.off_dst;
        for (std::size_t l = 0; match && l < k; ++l) {
          const std::uint32_t src = ops[j5 + l].off_a;
          match = src == ops[bj + l].off_a && src != p.off_c &&
                  src != q.off_c;
        }
        if (!match) {
          j5 += k;
          continue;
        }
        p.chain2 = static_cast<std::uint16_t>(k);
        p.chain = static_cast<std::uint16_t>(2 * k);
        ++fuse_stats_.chain_pairs;
        j5 += p.chain;
      }
    }
  }
  // Ops the passes left without a kernel run their compiled source op.
  // An unfused MulAdd stands for two: its Fmul and the Fadd after it.
  if (!std::all_of(ops.begin(), ops.end(),
                   [](const WordOp& q) { return executable(q.code); })) {
    std::vector<WordOp> routed;
    routed.reserve(ops.size() + 1);
    for (const WordOp& q : ops) {
      if (executable(q.code)) {
        routed.push_back(q);
        continue;
      }
      const int n = q.code == Code::MulAdd ? 2 : 1;
      for (int k = 0; k < n; ++k) {
        WordOp c;
        c.code = Code::Compiled;
        c.src = q.src + k;
        routed.push_back(c);
      }
    }
    ops = std::move(routed);
  }
  std::size_t dispatched = 0;
  for (std::size_t j = 0; j < ops.size(); j += ops[j].chain) {
    ++dispatched;
    fuse_stats_.compiled += ops[j].code == Code::Compiled ? 1 : 0;
  }
  fuse_stats_.ops_after += dispatched;
  // One sample per compiled stream; the trace summary's counter table
  // then shows per-stream means and the run's totals.
  trace::counter("word.fuse.ops_before", static_cast<double>(before));
  trace::counter("word.fuse.ops_after", static_cast<double>(dispatched));
  trace::counter("word.fuse.fused_pairs",
                 static_cast<double>(before - dispatched));
  trace::counter("word.fuse.dead_stores",
                 static_cast<double>(fuse_stats_.dead_stores - dead0));
  trace::counter("word.fuse.chain_pairs",
                 static_cast<double>(fuse_stats_.chain_pairs - pairs0));
}

void WordPlan::build_avx(WordStream& s) const {
  using AvxOp = wordavx::AvxOp;
  using Kind = AvxOp::Kind;
  // The engine's kernels exist for 1-4 groups per window, destination
  // and source alike. An op with a wider window, or one wider than the
  // row extent, becomes a Fallback op and runs the portable kernel of
  // its mirror WordOp. At n1d <= 3 the row extent (<= 32 rows) already
  // caps every window at 4 groups; wider windows first appear at n1d = 4.
  constexpr std::uint32_t kMaxGroups = 4;

  s.avx.ops.reserve(s.ops.size());
  // Arena offsets per AvxOp, patched into pointers once the arenas stop
  // growing (vector reallocation would invalidate anything earlier).
  std::vector<std::array<std::uint32_t, 3>> offs;
  offs.reserve(s.ops.size());
  constexpr std::uint32_t kNone = 0xffffffffu;
  std::vector<std::uint32_t> rows_buf, rows_buf2;

  // Materializes an op's row list: an op with an interned list carries
  // it verbatim, and one without (a contiguous op addressed by count
  // alone) rebuilds [start, start + count).
  const auto rows_of = [](const std::uint32_t* idx, std::uint32_t start,
                          std::uint32_t count,
                          std::vector<std::uint32_t>& buf)
      -> std::span<const std::uint32_t> {
    if (idx != nullptr) {
      return {idx, count};
    }
    buf.resize(count);
    for (std::uint32_t k = 0; k < count; ++k) {
      buf[k] = start + k;
    }
    return buf;
  };

  // Chain lowering state: after a ChainScaleAdd head, its links are
  // emitted as Nop data carriers (off_a / imm rebased onto the head's
  // window) so the mirror stays 1:1 with the scalar stream. When the
  // head itself fell back, the scalar fallback executes the whole
  // chain and the Nops stay empty.
  std::uint32_t pending_links = 0;
  std::uint32_t chain_wbase = 0;
  bool chain_live = false;

  for (std::uint32_t wi = 0; wi < s.ops.size(); ++wi) {
    const WordOp& w = s.ops[wi];
    if (pending_links > 0) {
      --pending_links;
      AvxOp link;
      link.kind = Kind::Nop;
      if (chain_live) {
        link.off_a = w.off_a + chain_wbase;
        link.imm = w.imm;
      }
      s.avx.ops.push_back(link);
      offs.push_back({kNone, kNone, kNone});
      continue;
    }
    AvxOp a;
    a.group = w.group;
    a.peer_group = w.group;
    a.imm = w.imm;
    a.imm2 = w.imm2;
    a.skip = w.skip;
    std::array<std::uint32_t, 3> off = {kNone, kNone, kNone};

    // Window over a row list: returns false (-> fallback) when the
    // group form cannot hold it. A window that would run past the row
    // extent slides down to end at it; it still covers [lo, hi] because
    // every row lies below the extent.
    const auto window = [&](std::span<const std::uint32_t> rows,
                            std::uint32_t& wbase, std::uint32_t& ngroups) {
      const auto [lo, hi] = std::minmax_element(rows.begin(), rows.end());
      ngroups = (*hi - *lo + 8) / 8;
      const bool fits = ngroups <= kMaxGroups && ngroups * 8 <= rows_;
      wbase = fits ? std::min(*lo, rows_ - ngroups * 8) : 0;
      return fits;
    };
    // Lane mask over the destination window (-1 = member row), plus the
    // dense-prefix count. Duplicate rows collapse onto one lane, which
    // preserves the scalar kernels' last-write-wins order because every
    // lane-filling loop below walks k ascending.
    const auto fill_mask = [&](std::span<const std::uint32_t> rows,
                               std::uint32_t wbase, std::uint32_t ngroups) {
      off[0] = static_cast<std::uint32_t>(s.lane_mask.size());
      s.lane_mask.resize(off[0] + ngroups * 8, 0);
      for (const std::uint32_t r : rows) {
        s.lane_mask[off[0] + (r - wbase)] = -1;
      }
      std::uint32_t nfull = 0;
      while (nfull < ngroups) {
        bool dense = true;
        for (std::uint32_t l = 0; l < 8; ++l) {
          dense &= s.lane_mask[off[0] + nfull * 8 + l] == -1;
        }
        if (!dense) {
          break;
        }
        ++nfull;
      }
      a.nfull = static_cast<std::uint16_t>(nfull);
      a.ngroups = static_cast<std::uint16_t>(ngroups);
    };

    bool ok = true;
    switch (w.code) {
      case Code::Add:
      case Code::Scale: {
        // All operands share the destination's row list, so window
        // aliasing between dst and a source is group-aligned: each
        // 8-lane group reads and writes the same rows, and groups are
        // disjoint — no cross-group dependence even in place.
        a.kind = w.code == Code::Add ? Kind::Add : Kind::Scale;
        const auto rows =
            rows_of(w.rows_a, w.start, w.count, rows_buf);
        std::uint32_t wbase = 0;
        std::uint32_t ngroups = 0;
        ok = window(rows, wbase, ngroups);
        if (ok) {
          fill_mask(rows, wbase, ngroups);
          a.off_a = w.off_a + wbase;
          a.off_b = w.off_b + wbase;
          a.off_dst = w.off_dst + wbase;
        }
        break;
      }
      case Code::ScatterContig: {
        a.kind = Kind::Const;
        const auto rows =
            rows_of(w.rows_a, w.start, w.count, rows_buf);
        std::uint32_t wbase = 0;
        std::uint32_t ngroups = 0;
        ok = window(rows, wbase, ngroups);
        if (ok) {
          fill_mask(rows, wbase, ngroups);
          a.off_dst = w.off_dst + wbase;
          off[1] = static_cast<std::uint32_t>(s.lane_values.size());
          s.lane_values.resize(off[1] + ngroups * 8, 0.0f);
          for (std::uint32_t k = 0; k < w.count; ++k) {
            s.lane_values[off[1] + (rows[k] - wbase)] = w.values[k];
          }
        }
        break;
      }
      case Code::ScaleAdd:
      case Code::ScaleAddIndexed:
      case Code::AxpyPair: {
        // Both fused halves walk the identical row list (the fuse pass's
        // shape-equality obligation), so one destination window covers
        // every operand and the group-alignment aliasing argument of the
        // compute ops extends to the second store.
        a.kind = w.code == Code::AxpyPair ? Kind::AxpyPair : Kind::ScaleAdd;
        a.imm3 = w.imm3;
        a.imm4 = w.imm4;
        const bool pair = w.code == Code::AxpyPair;
        const auto rows =
            pair ? rows_of(nullptr, 0, w.count, rows_buf)
                 : rows_of(w.rows_a, w.start, w.count, rows_buf);
        std::uint32_t wbase = 0;
        std::uint32_t ngroups = 0;
        ok = window(rows, wbase, ngroups);
        if (ok) {
          fill_mask(rows, wbase, ngroups);
          a.off_a = w.off_a + wbase;
          a.off_b = w.off_b + wbase;
          a.off_dst = w.off_dst + wbase;
          a.off_c = w.off_c + wbase;
          a.off_d = w.off_d + wbase;
        }
        break;
      }
      case Code::ChainScaleAdd:
      case Code::ChainScaleAddIndexed: {
        // The head's window covers every link too (identical row lists,
        // the chain pass's shape obligation); link source offsets are
        // rebased when the Nops are emitted above. A paired head
        // (chain2 != 0) additionally reads the second run's head — a
        // plain Nop carrier in the mirror — for the second accumulator
        // window and the live scratch-store skip bit.
        a.kind = w.chain2 != 0 ? Kind::Chain2ScaleAdd : Kind::ChainScaleAdd;
        a.chain = w.chain;
        a.chain2 = w.chain2;
        const auto rows =
            rows_of(w.rows_a, w.start, w.count, rows_buf);
        std::uint32_t wbase = 0;
        std::uint32_t ngroups = 0;
        ok = window(rows, wbase, ngroups);
        if (ok) {
          fill_mask(rows, wbase, ngroups);
          a.off_a = w.off_a + wbase;
          a.off_dst = w.off_dst + wbase;
          a.off_c = w.off_c + wbase;
          a.off_d = w.off_d + wbase;
          if (w.chain2 != 0) {
            const WordOp& second = s.ops[wi + w.chain2];
            a.off_b = second.off_c + wbase;
            a.skip = second.skip;
          }
          chain_wbase = wbase;
        }
        pending_links = w.chain - 1u;
        chain_live = ok;
        break;
      }
      case Code::GatherMul:
      case Code::GatherMulAdd: {
        // Source window + select network exactly like Permute; the
        // consumer's operands live on the contiguous destination rows.
        a.kind = w.code == Code::GatherMul ? Kind::GatherMul
                                           : Kind::GatherMulAdd;
        const auto src_rows =
            rows_of(w.rows_a, w.start, w.count, rows_buf);
        const auto dst_rows = rows_of(nullptr, 0, w.count, rows_buf2);
        std::uint32_t sbase = 0;
        std::uint32_t sgroups = 0;
        std::uint32_t dbase = 0;
        std::uint32_t dgroups = 0;
        ok = window(src_rows, sbase, sgroups) &&
             window(dst_rows, dbase, dgroups);
        if (ok) {
          fill_mask(dst_rows, dbase, dgroups);
          a.wgroups = static_cast<std::uint16_t>(sgroups);
          a.off_a = w.off_a + sbase;
          a.off_dst = w.off_dst + dbase;
          a.off_b = w.off_b + dbase;
          a.off_c = w.off_c + dbase;
          a.off_d = w.off_d + dbase;
          off[2] = static_cast<std::uint32_t>(s.lane_perm.size());
          s.lane_perm.resize(off[2] + dgroups * 8, 0);
          for (std::uint32_t k = 0; k < w.count; ++k) {
            s.lane_perm[off[2] + (dst_rows[k] - dbase)] =
                static_cast<std::int32_t>(src_rows[k] - sbase);
          }
          if (w.b_values != nullptr) {
            // Forwarded constant b: pad the plan table out to the lane
            // window (masked lanes multiply zeros that are blended
            // away) so the vector loads never run past the table end.
            off[1] = static_cast<std::uint32_t>(s.lane_values.size());
            s.lane_values.resize(off[1] + dgroups * 8, 0.0f);
            for (std::uint32_t k = 0; k < w.count; ++k) {
              s.lane_values[off[1] + (dst_rows[k] - dbase)] = w.b_values[k];
            }
          }
        }
        break;
      }
      case Code::MoveContig:
      case Code::MoveIndexed: {
        // Moves read the rows_a pattern and write the rows_b pattern of
        // the peer block. The whole source window is pre-loaded before
        // any store, which subsumes the overlapping-move scratch staging.
        a.kind = Kind::Permute;
        const auto src_rows =
            rows_of(w.rows_a, w.start, w.count, rows_buf);
        const auto dst_rows =
            rows_of(w.rows_b, w.start_b, w.count, rows_buf2);
        a.peer_group = w.peer_group;
        a.face = w.face;
        std::uint32_t sbase = 0;
        std::uint32_t sgroups = 0;
        std::uint32_t dbase = 0;
        std::uint32_t dgroups = 0;
        ok = window(src_rows, sbase, sgroups) &&
             window(dst_rows, dbase, dgroups);
        if (ok) {
          fill_mask(dst_rows, dbase, dgroups);
          a.wgroups = static_cast<std::uint16_t>(sgroups);
          a.off_a = w.off_a + sbase;
          a.off_dst = w.off_dst + dbase;
          off[2] = static_cast<std::uint32_t>(s.lane_perm.size());
          s.lane_perm.resize(off[2] + dgroups * 8, 0);
          for (std::uint32_t k = 0; k < w.count; ++k) {
            s.lane_perm[off[2] + (dst_rows[k] - dbase)] =
                static_cast<std::int32_t>(src_rows[k] - sbase);
          }
        }
        break;
      }
      default:  // Compiled: the fallback runs its source op
        ok = false;
        break;
    }

    if (!ok) {
      a = AvxOp{};
      a.kind = Kind::Fallback;
      a.fallback_idx = wi;
      off = {kNone, kNone, kNone};
    }
    s.avx.ops.push_back(a);
    offs.push_back(off);
  }

  for (std::size_t i = 0; i < s.avx.ops.size(); ++i) {
    AvxOp& a = s.avx.ops[i];
    if (offs[i][0] != kNone) {
      a.mask = s.lane_mask.data() + offs[i][0];
    }
    if (offs[i][1] != kNone) {
      a.values = s.lane_values.data() + offs[i][1];
    }
    if (offs[i][2] != kNone) {
      a.perm = s.lane_perm.data() + offs[i][2];
    }
  }
}

template <typename Fn>
void WordPlan::for_class_runs(std::span<const mesh::ElementId> elems,
                              Fn&& fn) const {
  std::size_t i = 0;
  while (i < elems.size()) {
    const std::uint32_t cls = class_of_[elems[i]];
    std::size_t j = i + 1;
    while (j < elems.size() && class_of_[elems[j]] == cls) {
      ++j;
    }
    fn(elems.subspan(i, j - i), classes_[cls]);
    i = j;
  }
}

void WordPlan::run_volume(const BlockResolver& blocks,
                          std::span<const mesh::ElementId> elems) const {
  for_class_runs(elems, [&](std::span<const mesh::ElementId> run,
                            const ClassStreams& cs) {
    run_stream(blocks, run, cs.volume);
  });
}

void WordPlan::run_flux_group(const BlockResolver& blocks,
                              std::span<const mesh::ElementId> elems,
                              FaceGroup group) const {
  for_class_runs(elems, [&](std::span<const mesh::ElementId> run,
                            const ClassStreams& cs) {
    run_stream(blocks, run, cs.flux[static_cast<std::size_t>(group)]);
  });
}

const WordPlan::WordStream& WordPlan::integration(int stage, float dt) {
  const auto key = std::make_pair(stage, std::bit_cast<std::uint32_t>(dt));
  const auto it = integration_.find(key);
  if (it != integration_.end()) {
    return it->second;
  }
  return integration_.emplace(key, compile(plan_.integration(stage, dt)))
      .first->second;
}

namespace {

/// The op-major loop over the portable pim/word.h kernels: the whole
/// executor for streams without an AVX2 mirror (every stream on hosts
/// without AVX2), and the Fallback ops' bridge on AVX2 hosts. Compiled
/// once, for the baseline target. All WAVEPIM_IVDEP loops below touch
/// provably dependence-free index sets — compile() routes every shape
/// that could overlap partially to the scalar-order indexed Move kernel
/// or to Compiled.
void exec_ops(std::span<const WordPlan::WordOp> ops,
              const BlockResolver& blocks, const ExecutionPlan& plan,
              std::span<const mesh::ElementId> elems, float* const* ptrs,
              std::uint32_t num_groups) {
  using WordOp = WordPlan::WordOp;
  const std::size_t n = elems.size();

  // Move sources may sit in a neighbour element's block (face >= 0).
  const auto move_src = [&](const WordOp& op, std::size_t i) -> const float* {
    if (op.face < 0) {
      return ptrs[i * num_groups + op.group];
    }
    const std::uint32_t nb =
        plan.neighbor_bases(elems[i])[static_cast<std::size_t>(op.face)];
    return blocks(nb + op.group).words().data();
  };

  // Chain heads consume their link ops, so the walk advances by
  // op.chain (1 for everything else).
  for (std::size_t oi = 0; oi < ops.size(); oi += ops[oi].chain) {
    const WordOp& op = ops[oi];
    switch (op.code) {
      case Code::ScatterContig:
        for (std::size_t i = 0; i < n; ++i) {
          float* d = ptrs[i * num_groups + op.group] + op.off_dst + op.start;
          WAVEPIM_IVDEP
          for (std::uint32_t k = 0; k < op.count; ++k) {
            d[k] = op.values[k];
          }
        }
        break;
      case Code::Add:
        for (std::size_t i = 0; i < n; ++i) {
          float* w = ptrs[i * num_groups + op.group];
          pim::word::add(w + op.off_dst + op.start, w + op.off_a + op.start,
                         w + op.off_b + op.start, op.count);
        }
        break;
      case Code::Scale:
        for (std::size_t i = 0; i < n; ++i) {
          float* w = ptrs[i * num_groups + op.group];
          pim::word::scale(w + op.off_dst + op.start, w + op.off_a + op.start,
                           op.imm, op.count);
        }
        break;
      case Code::ScaleAdd:
        for (std::size_t i = 0; i < n; ++i) {
          float* w = ptrs[i * num_groups + op.group];
          pim::word::scale_add(w + op.off_d + op.start,
                               w + op.off_dst + op.start,
                               w + op.off_a + op.start,
                               w + op.off_c + op.start, op.imm, op.count,
                               (op.skip & WordOp::kSkipMid) == 0);
        }
        break;
      case Code::ScaleAddIndexed:
        for (std::size_t i = 0; i < n; ++i) {
          float* w = ptrs[i * num_groups + op.group];
          pim::word::scale_add_indexed(w + op.off_d, w + op.off_dst,
                                       w + op.off_a, w + op.off_c, op.imm,
                                       op.rows_a, op.count,
                                       (op.skip & WordOp::kSkipMid) == 0);
        }
        break;
      case Code::AxpyPair:
        for (std::size_t i = 0; i < n; ++i) {
          float* w = ptrs[i * num_groups + op.group];
          pim::word::axpy_pair(w + op.off_dst, w + op.off_a, w + op.off_c,
                               op.imm, op.imm2, op.imm3, op.imm4, op.count);
        }
        break;
      case Code::ChainScaleAdd:
      case Code::ChainScaleAddIndexed: {
        // op and its links are consecutive in `ops`; every link shares
        // the head's shape, scratch (off_dst) and accumulator (off_c)
        // and contributes its own source column + immediate. A paired
        // head (chain2 != 0) spans TWO runs of chain2 links each over
        // the same sources; the second run's head (at oi + chain2)
        // carries the second accumulator, immediates and the skip bit
        // of the only live scratch store (the first run's was elided —
        // a pairing precondition).
        const bool paired = op.chain2 != 0;
        const std::uint32_t k = paired ? op.chain2 : op.chain;
        std::array<const float*, kMaxChain> srcs;
        std::array<float, kMaxChain> imms;
        std::array<float, kMaxChain> imms2;
        for (std::uint32_t j = 0; j < k; ++j) {
          imms[j] = ops[oi + j].imm;
          if (paired) {
            imms2[j] = ops[oi + k + j].imm;
          }
        }
        const std::uint32_t off_c2 = paired ? ops[oi + k].off_c : 0;
        const bool store_mid =
            ((paired ? ops[oi + k].skip : op.skip) & WordOp::kSkipMid) == 0;
        for (std::size_t i = 0; i < n; ++i) {
          float* w = ptrs[i * num_groups + op.group];
          if (op.code == Code::ChainScaleAdd) {
            for (std::uint32_t j = 0; j < k; ++j) {
              srcs[j] = w + ops[oi + j].off_a + op.start;
            }
            if (paired) {
              pim::word::chain2_scale_add(
                  w + op.off_c + op.start, w + off_c2 + op.start,
                  w + op.off_dst + op.start, srcs.data(), imms.data(),
                  imms2.data(), k, op.count, store_mid);
            } else {
              pim::word::chain_scale_add(w + op.off_c + op.start,
                                         w + op.off_dst + op.start,
                                         srcs.data(), imms.data(), k,
                                         op.count, store_mid);
            }
          } else {
            for (std::uint32_t j = 0; j < k; ++j) {
              srcs[j] = w + ops[oi + j].off_a;
            }
            if (paired) {
              pim::word::chain2_scale_add_indexed(
                  w + op.off_c, w + off_c2, w + op.off_dst, srcs.data(),
                  imms.data(), imms2.data(), k, op.rows_a, op.count,
                  store_mid);
            } else {
              pim::word::chain_scale_add_indexed(
                  w + op.off_c, w + op.off_dst, srcs.data(), imms.data(), k,
                  op.rows_a, op.count, store_mid);
            }
          }
        }
        break;
      }
      case Code::GatherMul:
        for (std::size_t i = 0; i < n; ++i) {
          float* w = ptrs[i * num_groups + op.group];
          pim::word::gather_mul(w + op.off_d, w + op.off_dst, w + op.off_a,
                                op.rows_a,
                                op.b_values ? op.b_values : w + op.off_b,
                                op.count, (op.skip & WordOp::kSkipG) == 0);
        }
        break;
      case Code::GatherMulAdd:
        for (std::size_t i = 0; i < n; ++i) {
          float* w = ptrs[i * num_groups + op.group];
          pim::word::gather_mul_add(w + op.off_c, w + op.off_d, w + op.off_dst,
                                    w + op.off_a, op.rows_a,
                                    op.b_values ? op.b_values : w + op.off_b,
                                    op.count,
                                    (op.skip & WordOp::kSkipG) == 0,
                                    (op.skip & WordOp::kSkipMid) == 0);
        }
        break;
      case Code::MoveContig:
        for (std::size_t i = 0; i < n; ++i) {
          const float* s = move_src(op, i) + op.off_a + op.start;
          float* d =
              ptrs[i * num_groups + op.peer_group] + op.off_dst + op.start_b;
          WAVEPIM_IVDEP
          for (std::uint32_t k = 0; k < op.count; ++k) {
            d[k] = s[k];
          }
        }
        break;
      case Code::MoveIndexed:
        for (std::size_t i = 0; i < n; ++i) {
          pim::word::move(
              ptrs[i * num_groups + op.peer_group] + op.off_dst, op.rows_b,
              move_src(op, i) + op.off_a, op.rows_a, op.count);
        }
        break;
      case Code::Compiled:
        for (std::size_t i = 0; i < n; ++i) {
          plan.run_op(blocks, plan.block_base(elems[i]),
                      &plan.neighbor_bases(elems[i]), *op.src);
        }
        break;
      default:
        WAVEPIM_REQUIRE(false, "word op without a kernel reached execution");
    }
  }
}

/// AVX2 engine escape hatch: executes one generic WordOp of the mirror
/// stream, in stream position, through the scalar kernels.
void run_fallback_op(const wordavx::ExecCtx& ctx, std::uint32_t idx,
                     const void* fallback_ctx) {
  const auto* stream = static_cast<const WordPlan::WordStream*>(fallback_ctx);
  // Chain heads need their link ops in the span (the scalar walk reads
  // ops[idx .. idx+chain)); everything else is a 1-op span.
  exec_ops(std::span<const WordPlan::WordOp>(&stream->ops[idx],
                                             stream->ops[idx].chain),
           *ctx.blocks, *ctx.plan, ctx.elems, ctx.ptrs, ctx.num_groups);
}

}  // namespace

void WordPlan::run_stream(const BlockResolver& blocks,
                          std::span<const mesh::ElementId> elems,
                          const WordStream& stream) const {
  // Per-run block storage pointers, resolved once: the op loops index
  // ptrs[element * num_groups + group] with no further indirection.
  // Thread-local and capacity-retaining, so steady-state steps allocate
  // nothing.
  thread_local std::vector<float*> ptr_tls;
  const std::size_t n = elems.size();
  const std::uint32_t num_groups = num_groups_;
  ptr_tls.resize(n * num_groups);
  float** const ptrs = ptr_tls.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t base = base_of_[elems[i]];
    for (std::uint32_t g = 0; g < num_groups; ++g) {
      pim::Block& block = blocks(base + g);
      WAVEPIM_ASSERT(block.rows() == rows_, "block extent is not the plan's");
      ptrs[i * num_groups + g] = block.words().data();
    }
  }

  // Element-major blocking: run the WHOLE kernel stream over one small
  // sub-chunk of elements before moving to the next, so the sub-chunk's
  // touched columns stay L1-resident across every op of the stream
  // (op-major order re-walks the full chunk's working set per op).
  // Elements' writes are disjoint, so this reorders only across
  // elements — bit-identity is untouched. move_src indexes elems and
  // ptrs consistently because both are sliced together.
  for (std::size_t s0 = 0; s0 < n; s0 += kBlockElems) {
    const std::size_t m = std::min<std::size_t>(kBlockElems, n - s0);
    const auto sub_elems = elems.subspan(s0, m);
    float* const* sub_ptrs = ptrs + s0 * num_groups;
    if (!stream.avx.ops.empty()) {
      wordavx::ExecCtx ctx;
      ctx.blocks = &blocks;
      ctx.plan = &plan_;
      ctx.elems = sub_elems;
      ctx.ptrs = sub_ptrs;
      ctx.num_groups = num_groups;
      ctx.fallback = &run_fallback_op;
      ctx.fallback_ctx = &stream;
      wordavx::exec(stream.avx, ctx);
    } else {
      exec_ops(stream.ops, blocks, plan_, sub_elems, sub_ptrs, num_groups);
    }
  }

  // The batched per-block cost aggregates, per element in range order —
  // the same values the compiled tier applies after its per-element op
  // loop (elements own disjoint blocks, so cross-element order is
  // ledger-irrelevant).
  const auto& charges = *stream.group_cost;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t base = base_of_[elems[i]];
    for (const auto& [group, cost] : charges) {
      blocks(base + group).charge(cost);
    }
  }
}

}  // namespace wavepim::mapping
