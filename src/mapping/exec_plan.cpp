#include "mapping/exec_plan.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/error.h"

namespace wavepim::mapping {

namespace {

using Op = ExecutionPlan::Op;

/// ProgramSink that compiles a replayed relocatable stream into a
/// StreamPlan: decoded ops with resolved span pointers, plus the
/// left-folded per-group cost aggregates in exact charge order. Each
/// callback mirrors what pim::Block's own ops would charge for the same
/// call when the functional oracle executes it — through the shared
/// formulas, so the aggregate equals the sequential ledger bit-for-bit.
class PlanBuilder final : public ProgramSink {
 public:
  PlanBuilder(ExecutionPlan::StreamPlan& out,
              std::array<std::vector<ExecutionPlan::DeferredCharge>, 6>*
                  deferred,
              SinkPricing pricing, std::uint32_t num_groups,
              std::uint32_t rows)
      : out_(out),
        deferred_(deferred),
        pricing_(pricing),
        rows_(rows),
        acc_(num_groups),
        touched_(num_groups, 0) {}

  /// Emits the per-group aggregates (in group order; application order
  /// across distinct ledgers is irrelevant, the fold order within each
  /// ledger is what matters and is preserved by charge()).
  void finish() {
    for (std::uint32_t g = 0; g < acc_.size(); ++g) {
      if (touched_[g]) {
        out_.group_cost.emplace_back(static_cast<std::uint8_t>(g), acc_[g]);
      }
    }
  }

  void scatter(std::uint32_t group, std::span<const std::uint32_t> rows,
               std::uint32_t col, std::span<const float> values,
               std::uint32_t distinct_values) override {
    WAVEPIM_REQUIRE(rows.size() == values.size(),
                    "scatter needs one value per row");
    Op op;
    op.kind = Op::Kind::Scatter;
    op.group = check_group(group);
    op.col_dst = static_cast<std::uint8_t>(col);
    op.count = static_cast<std::uint32_t>(rows.size());
    op.rows_a = rows.data();
    op.values = values.data();
    op.distinct = distinct_values;
    push(op);
    charge(group, pim::Block::scatter_cost(*pricing_.model, rows.size(),
                                           distinct_values));
  }

  void gather(std::uint32_t group, std::span<const std::uint32_t> src_rows,
              std::uint32_t src_col, std::uint32_t dst_col) override {
    Op op;
    op.kind = Op::Kind::Gather;
    op.group = check_group(group);
    op.col_a = static_cast<std::uint8_t>(src_col);
    op.col_dst = static_cast<std::uint8_t>(dst_col);
    op.count = static_cast<std::uint32_t>(src_rows.size());
    op.rows_a = src_rows.data();
    push(op);
    charge(group, pim::Block::gather_cost(*pricing_.model, src_rows.size()));
  }

  void arith(std::uint32_t group, pim::Opcode opcode, std::uint32_t col_a,
             std::uint32_t col_b, std::uint32_t col_dst,
             std::uint32_t rows) override {
    Op op;
    op.kind = Op::Kind::Arith;
    op.opcode = opcode;
    op.group = check_group(group);
    op.col_a = static_cast<std::uint8_t>(col_a);
    op.col_b = static_cast<std::uint8_t>(col_b);
    op.col_dst = static_cast<std::uint8_t>(col_dst);
    op.count = rows;
    push(op);
    charge(group, pricing_.model->op_cost(opcode, rows));
  }

  void fscale(std::uint32_t group, std::uint32_t col_src,
              std::uint32_t col_dst, float imm, std::uint32_t rows) override {
    Op op;
    op.kind = Op::Kind::Fscale;
    op.group = check_group(group);
    op.col_a = static_cast<std::uint8_t>(col_src);
    op.col_dst = static_cast<std::uint8_t>(col_dst);
    op.imm = imm;
    op.count = rows;
    push(op);
    charge(group, pricing_.model->op_cost(pim::Opcode::Fscale, rows));
  }

  void faxpy(std::uint32_t group, std::uint32_t col_dst,
             std::uint32_t col_src, float a, float c,
             std::uint32_t rows) override {
    Op op;
    op.kind = Op::Kind::Faxpy;
    op.group = check_group(group);
    op.col_a = static_cast<std::uint8_t>(col_src);
    op.col_dst = static_cast<std::uint8_t>(col_dst);
    op.imm = a;
    op.imm2 = c;
    op.count = rows;
    push(op);
    charge(group, pricing_.model->op_cost(pim::Opcode::Faxpy, rows));
  }

  void arith_rows(std::uint32_t group, pim::Opcode opcode,
                  std::uint32_t col_a, std::uint32_t col_b,
                  std::uint32_t col_dst,
                  std::span<const std::uint32_t> rows) override {
    Op op;
    op.kind = Op::Kind::ArithRows;
    op.opcode = opcode;
    op.group = check_group(group);
    op.col_a = static_cast<std::uint8_t>(col_a);
    op.col_b = static_cast<std::uint8_t>(col_b);
    op.col_dst = static_cast<std::uint8_t>(col_dst);
    op.count = static_cast<std::uint32_t>(rows.size());
    op.rows_a = rows.data();
    push(op);
    charge(group, pricing_.model->op_cost(
                      opcode, static_cast<std::uint32_t>(rows.size())));
  }

  void fscale_rows(std::uint32_t group, std::uint32_t col_src,
                   std::uint32_t col_dst, float imm,
                   std::span<const std::uint32_t> rows) override {
    Op op;
    op.kind = Op::Kind::FscaleRows;
    op.group = check_group(group);
    op.col_a = static_cast<std::uint8_t>(col_src);
    op.col_dst = static_cast<std::uint8_t>(col_dst);
    op.imm = imm;
    op.count = static_cast<std::uint32_t>(rows.size());
    op.rows_a = rows.data();
    push(op);
    charge(group,
           pricing_.model->op_cost(pim::Opcode::Fscale,
                                   static_cast<std::uint32_t>(rows.size())));
  }

  void intra_transfer(std::uint32_t src_group, std::uint32_t src_col,
                      std::span<const std::uint32_t> src_rows,
                      std::uint32_t dst_group, std::uint32_t dst_col,
                      std::span<const std::uint32_t> dst_rows) override {
    push_move(/*face=*/-1, src_group, src_col, src_rows, dst_group, dst_col,
              dst_rows);
    // Charge order mirrors the oracle's sequential execution: destination
    // writes first, then the source reads — the order
    // matters when both land on the same ledger (src_group == dst_group).
    charge(dst_group, pricing_.rows_written(dst_rows.size()));
    charge(src_group, pricing_.rows_read(src_rows.size()));
  }

  void inter_transfer(mesh::Face face, std::uint32_t src_group,
                      std::uint32_t src_col,
                      std::span<const std::uint32_t> src_rows,
                      std::uint32_t dst_group, std::uint32_t dst_col,
                      std::span<const std::uint32_t> dst_rows) override {
    WAVEPIM_REQUIRE(deferred_ != nullptr,
                    "inter_transfer outside the flux phase");
    push_move(static_cast<std::int8_t>(mesh::index_of(face)), src_group,
              src_col, src_rows, dst_group, dst_col, dst_rows);
    charge(dst_group, pricing_.rows_written(dst_rows.size()));
    // The source-side reads belong to the neighbour's ledger and settle
    // in flux phase B — per charge, not folded (the ledger is no longer
    // zero when they arrive).
    (*deferred_)[mesh::index_of(face)].push_back(
        {check_group(src_group), pricing_.rows_read(src_rows.size())});
  }

  void lut_fetch(std::uint32_t group, std::uint32_t count) override {
    // Mirrors the oracle's lut_fetch: the ledger receives ONE charge
    // whose value is the count-fold of lut_unit.
    pim::OpCost total{};
    for (std::uint32_t i = 0; i < count; ++i) {
      total += pricing_.lut_unit;
    }
    charge(check_group(group), total);
  }

 private:
  static std::uint8_t check_group(std::uint32_t group) {
    WAVEPIM_REQUIRE(group < 0xFF, "group index out of range");
    return static_cast<std::uint8_t>(group);
  }

  void push(const Op& op) {
    ExecutionPlan::check_rows(op, rows_);
    out_.ops.push_back(op);
  }

  void push_move(std::int8_t face, std::uint32_t src_group,
                 std::uint32_t src_col,
                 std::span<const std::uint32_t> src_rows,
                 std::uint32_t dst_group, std::uint32_t dst_col,
                 std::span<const std::uint32_t> dst_rows) {
    WAVEPIM_REQUIRE(src_rows.size() == dst_rows.size(),
                    "transfer row lists must match");
    Op op;
    op.kind = Op::Kind::Move;
    op.face = face;
    op.group = check_group(src_group);
    op.peer_group = check_group(dst_group);
    op.col_a = static_cast<std::uint8_t>(src_col);
    op.col_dst = static_cast<std::uint8_t>(dst_col);
    op.count = static_cast<std::uint32_t>(src_rows.size());
    op.rows_a = src_rows.data();
    op.rows_b = dst_rows.data();
    push(op);
    out_.transfers.push_back(
        {face, static_cast<std::uint8_t>(src_group),
         static_cast<std::uint8_t>(dst_group), op.count});
  }

  void charge(std::uint32_t group, const pim::OpCost& cost) {
    acc_[group] += cost;
    touched_[group] = 1;
  }

  ExecutionPlan::StreamPlan& out_;
  std::array<std::vector<ExecutionPlan::DeferredCharge>, 6>* deferred_;
  SinkPricing pricing_;
  std::uint32_t rows_;
  std::vector<pim::OpCost> acc_;
  std::vector<std::uint8_t> touched_;
};

constexpr std::uint32_t kNoNeighbor = 0xFFFFFFFFu;

}  // namespace

void ExecutionPlan::check_rows(const Op& op, std::uint32_t row_extent) {
  WAVEPIM_REQUIRE(op.count <= row_extent, "op overflows rows");
  for (const std::uint32_t* rows : {op.rows_a, op.rows_b}) {
    for (std::uint32_t i = 0; rows != nullptr && i < op.count; ++i) {
      WAVEPIM_REQUIRE(rows[i] < row_extent, "block address out of range");
    }
  }
}

ExecutionPlan::ExecutionPlan(const ProgramCache& cache,
                             const mesh::StructuredMesh& mesh,
                             Placement placement, SinkPricing pricing,
                             std::uint32_t row_extent)
    : cache_(cache),
      placement_(placement),
      pricing_(pricing),
      row_extent_(row_extent) {
  const std::uint32_t num_groups = cache.setup().num_groups();

  classes_.resize(cache.num_classes());
  for (std::uint32_t cls = 0; cls < cache.num_classes(); ++cls) {
    ClassPlan& cp = classes_[cls];
    {
      PlanBuilder builder(cp.volume, nullptr, pricing_, num_groups,
                          row_extent_);
      replay(cache.arena(), cache.volume(cls), builder);
      builder.finish();
    }
    for (std::uint32_t g = 0; g < kNumFaceGroups; ++g) {
      // One stream per face group — the granularity of one schedule
      // compute step. A group's faces fold into one aggregate (the
      // oracle charges them op by op within the step); folds
      // never span a step boundary, where ledgers are drained.
      PlanBuilder builder(cp.flux[g], &cp.deferred, pricing_, num_groups,
                          row_extent_);
      for (mesh::Face f : faces_of(static_cast<FaceGroup>(g))) {
        replay(cache.arena(), cache.flux(cls, f), builder);
      }
      builder.finish();
    }
  }

  // Per-element resolution, done exactly once: neighbour block bases and
  // the element-order merged transfer lists of every phase.
  neighbor_base_.resize(mesh.num_elements());
  for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
    for (mesh::Face f : mesh::kAllFaces) {
      const auto neighbor = mesh.neighbor(e, f);
      neighbor_base_[e][mesh::index_of(f)] =
          neighbor ? placement_.block_of(*neighbor, 0) : kNoNeighbor;
    }
  }
  for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
    const ClassPlan& cp = classes_[cache.class_of(e)];
    const std::uint32_t base = placement_.block_of(e, 0);
    for (const TransferTemplate& t : cp.volume.transfers) {
      WAVEPIM_REQUIRE(t.face < 0, "volume stream cannot pull a neighbour");
      volume_transfers_.push_back(
          {base + t.src_group, base + t.dst_group, t.words});
    }
    // Flux transfers in the canonical per-element group order the batch
    // schedule applies faces in, so the pre-merged list matches what
    // the functional oracle collects phase by phase on any window size.
    for (FaceGroup g : canonical_group_order(y_minus_deferred(mesh, e))) {
      const StreamPlan& stream = cp.flux[static_cast<std::size_t>(g)];
      for (const TransferTemplate& t : stream.transfers) {
        const std::uint32_t src_base =
            t.face < 0 ? base : neighbor_base_[e][static_cast<std::size_t>(
                                    t.face)];
        WAVEPIM_REQUIRE(src_base != kNoNeighbor,
                        "flux stream pulls across a boundary face");
        flux_transfers_.push_back(
            {src_base + t.src_group, base + t.dst_group, t.words});
      }
    }
  }
}

void ExecutionPlan::run_op(const BlockResolver& blocks, std::uint32_t base,
                           const std::array<std::uint32_t, 6>* neighbor_base,
                           const Op& op) const {
  switch (op.kind) {
    case Op::Kind::Scatter: {
      float* dst = blocks(base + op.group).column(op.col_dst).data();
      for (std::uint32_t i = 0; i < op.count; ++i) {
        dst[op.rows_a[i]] = op.values[i];
      }
      break;
    }
    case Op::Kind::Gather: {
      pim::Block& blk = blocks(base + op.group);
      // Staged copy first: the gather is a parallel permutation even
      // when source and destination row ranges overlap (same contract
      // as the test oracle's pim::gather_rows, same per-worker scratch).
      static thread_local std::vector<float> staged;
      staged.resize(op.count);
      const float* src = blk.column(op.col_a).data();
      for (std::uint32_t i = 0; i < op.count; ++i) {
        staged[i] = src[op.rows_a[i]];
      }
      float* dst = blk.column(op.col_dst).data();
      for (std::uint32_t i = 0; i < op.count; ++i) {
        dst[i] = staged[i];
      }
      break;
    }
    case Op::Kind::Arith: {
      pim::Block& blk = blocks(base + op.group);
      const float* a = blk.column(op.col_a).data();
      const float* b = blk.column(op.col_b).data();
      float* dst = blk.column(op.col_dst).data();
      switch (op.opcode) {
        case pim::Opcode::Fadd:
          for (std::uint32_t r = 0; r < op.count; ++r) {
            dst[r] = a[r] + b[r];
          }
          break;
        case pim::Opcode::Fsub:
          for (std::uint32_t r = 0; r < op.count; ++r) {
            dst[r] = a[r] - b[r];
          }
          break;
        case pim::Opcode::Fmul:
          for (std::uint32_t r = 0; r < op.count; ++r) {
            dst[r] = a[r] * b[r];
          }
          break;
        default:
          WAVEPIM_REQUIRE(false, "unsupported two-operand arith opcode");
      }
      break;
    }
    case Op::Kind::ArithRows: {
      pim::Block& blk = blocks(base + op.group);
      const float* a = blk.column(op.col_a).data();
      const float* b = blk.column(op.col_b).data();
      float* dst = blk.column(op.col_dst).data();
      switch (op.opcode) {
        case pim::Opcode::Fadd:
          for (std::uint32_t i = 0; i < op.count; ++i) {
            const std::uint32_t r = op.rows_a[i];
            dst[r] = a[r] + b[r];
          }
          break;
        case pim::Opcode::Fsub:
          for (std::uint32_t i = 0; i < op.count; ++i) {
            const std::uint32_t r = op.rows_a[i];
            dst[r] = a[r] - b[r];
          }
          break;
        case pim::Opcode::Fmul:
          for (std::uint32_t i = 0; i < op.count; ++i) {
            const std::uint32_t r = op.rows_a[i];
            dst[r] = a[r] * b[r];
          }
          break;
        default:
          WAVEPIM_REQUIRE(false, "unsupported two-operand arith opcode");
      }
      break;
    }
    case Op::Kind::Fscale: {
      pim::Block& blk = blocks(base + op.group);
      const float* src = blk.column(op.col_a).data();
      float* dst = blk.column(op.col_dst).data();
      for (std::uint32_t r = 0; r < op.count; ++r) {
        dst[r] = op.imm * src[r];
      }
      break;
    }
    case Op::Kind::FscaleRows: {
      pim::Block& blk = blocks(base + op.group);
      const float* src = blk.column(op.col_a).data();
      float* dst = blk.column(op.col_dst).data();
      for (std::uint32_t i = 0; i < op.count; ++i) {
        const std::uint32_t r = op.rows_a[i];
        dst[r] = op.imm * src[r];
      }
      break;
    }
    case Op::Kind::Faxpy: {
      pim::Block& blk = blocks(base + op.group);
      const float* src = blk.column(op.col_a).data();
      float* dst = blk.column(op.col_dst).data();
      for (std::uint32_t r = 0; r < op.count; ++r) {
        dst[r] = op.imm * dst[r] + op.imm2 * src[r];
      }
      break;
    }
    case Op::Kind::Move: {
      const std::uint32_t src_base =
          op.face < 0
              ? base
              : (*neighbor_base)[static_cast<std::size_t>(op.face)];
      const float* src =
          blocks(src_base + op.group).column(op.col_a).data();
      float* dst =
          blocks(base + op.peer_group).column(op.col_dst).data();
      for (std::uint32_t i = 0; i < op.count; ++i) {
        dst[op.rows_b[i]] = src[op.rows_a[i]];
      }
      break;
    }
  }
}

void ExecutionPlan::run_stream(
    const BlockResolver& blocks, std::uint32_t base,
    const std::array<std::uint32_t, 6>* neighbor_base,
    const StreamPlan& stream) const {
  for (const Op& op : stream.ops) {
    run_op(blocks, base, neighbor_base, op);
  }
  // One batched charge per touched block: the pre-folded phase aggregate
  // (bit-identical to the per-op sequence — the ledger starts at zero).
  for (const auto& [group, cost] : stream.group_cost) {
    blocks(base + group).charge(cost);
  }
}

void ExecutionPlan::run_volume(const BlockResolver& blocks,
                               mesh::ElementId e) const {
  run_stream(blocks, placement_.block_of(e, 0), nullptr,
             classes_[cache_.class_of(e)].volume);
}

void ExecutionPlan::run_flux_group(const BlockResolver& blocks,
                                   mesh::ElementId e, FaceGroup group) const {
  run_stream(blocks, placement_.block_of(e, 0), &neighbor_base_[e],
             classes_[cache_.class_of(e)].flux[static_cast<std::size_t>(
                 group)]);
}

void ExecutionPlan::run_integration(const BlockResolver& blocks,
                                    mesh::ElementId e,
                                    const StreamPlan& stage) const {
  run_stream(blocks, placement_.block_of(e, 0), nullptr, stage);
}

void ExecutionPlan::settle_pull(pim::OpCost* accumulators, mesh::ElementId e,
                                mesh::Face face) const {
  const auto& deferred =
      classes_[cache_.class_of(e)].deferred[mesh::index_of(face)];
  if (deferred.empty()) {
    return;
  }
  const std::uint32_t neighbor = neighbor_base_[e][mesh::index_of(face)];
  WAVEPIM_REQUIRE(neighbor != kNoNeighbor,
                  "deferred charges across a boundary face");
  for (const DeferredCharge& c : deferred) {
    accumulators[neighbor + c.src_group] += c.cost;
  }
}

const ExecutionPlan::StreamPlan& ExecutionPlan::integration(int stage,
                                                            float dt) {
  const auto key = std::make_pair(stage, std::bit_cast<std::uint32_t>(dt));
  const auto it = integration_.find(key);
  if (it != integration_.end()) {
    return it->second;
  }
  // Emitted straight into the builder: the stage issues only full-column
  // faxpy calls, so no op keeps a pointer into a row or value table
  // (direct emission would leave one dangling).
  StreamPlan plan;
  PlanBuilder builder(plan, nullptr, pricing_, cache_.setup().num_groups(),
                      row_extent_);
  emit_integration_stage(cache_.setup(), stage, dt, builder);
  builder.finish();
  WAVEPIM_REQUIRE(plan.transfers.empty(),
                  "integration streams move no data between blocks");
  const auto carries_table = [](const Op& op) {
    return op.rows_a != nullptr || op.rows_b != nullptr ||
           op.values != nullptr;
  };
  WAVEPIM_REQUIRE(std::ranges::none_of(plan.ops, carries_table),
                  "integration streams carry no row or value table");
  return integration_.emplace(key, std::move(plan)).first->second;
}

}  // namespace wavepim::mapping
