#pragma once

#include <vector>

#include "mapping/element_program.h"
#include "mesh/structured_mesh.h"
#include "pim/chip.h"

namespace wavepim::mapping {

/// Shared pricing of the operations every sink and the compiled plan
/// account identically, so functional and analytic costs cannot drift.
struct SinkPricing {
  const pim::ArithModel* model = nullptr;
  /// Cost of fetching one LUT constant (see make()).
  pim::OpCost lut_unit{};

  /// The pricing on one chip's arithmetic model and interconnect. The
  /// LUT unit is Algorithm 1's index read + content read + destination
  /// write plus the switch leg from a same-quadrant LUT block
  /// (block 0 -> block 5).
  [[nodiscard]] static SinkPricing make(const pim::ArithModel& model,
                                        const pim::Interconnect& net);

  [[nodiscard]] pim::OpCost rows_read(std::size_t n) const;
  [[nodiscard]] pim::OpCost rows_written(std::size_t n) const;
};

/// Maps elements of one batch onto chip blocks: element-major, group-minor
/// (element e occupies blocks [e*bpe, (e+1)*bpe)), so the blocks of one
/// element sit under the same (or adjacent) H-tree switch — the layout
/// rationale of §4.2.1.
class Placement {
 public:
  Placement(std::uint32_t blocks_per_element, std::uint64_t batch_base = 0)
      : bpe_(blocks_per_element), base_(batch_base) {}

  [[nodiscard]] std::uint32_t blocks_per_element() const { return bpe_; }

  /// Global block id of (element-local index, group).
  [[nodiscard]] std::uint32_t block_of(std::uint64_t local_element,
                                       std::uint32_t group) const {
    return static_cast<std::uint32_t>((base_ + local_element) * bpe_ + group);
  }

 private:
  std::uint32_t bpe_;
  std::uint64_t base_;
};

/// Resolves block ids to physical blocks. By default ids address the
/// chip directly (the fully-resident numbering); with a residency table
/// the ids are *virtual* and indirect through it, so the same emitted
/// programs run unchanged whether an element's blocks are pinned or
/// cycled through a slice window (mapping/residency.h).
class BlockResolver {
 public:
  /*implicit*/ BlockResolver(pim::Chip& chip) : chip_(&chip) {}
  BlockResolver(pim::Chip& chip, pim::Block* const* table)
      : chip_(&chip), table_(table) {}

  [[nodiscard]] pim::Block& operator()(std::uint32_t id) const {
    return table_ != nullptr ? *table_[id] : chip_->block(id);
  }
  [[nodiscard]] pim::Chip& chip() const { return *chip_; }

 private:
  pim::Chip* chip_;
  pim::Block* const* table_ = nullptr;
};

/// Tallies per-group block costs and transfer descriptors for one
/// *representative* element — because every element executes the identical
/// instruction stream, one element's group timeline is the per-phase block
/// time, and energies scale by the element count.
class CostSink : public ProgramSink {
 public:
  explicit CostSink(SinkPricing pricing, std::uint32_t num_groups);

  /// Transfer between two blocks of the same element.
  struct IntraDescriptor {
    std::uint32_t src_group;
    std::uint32_t dst_group;
    std::uint32_t words;

    bool operator==(const IntraDescriptor&) const = default;
  };
  /// Transfer from a face-neighbour element's block.
  struct InterDescriptor {
    mesh::Face face;
    std::uint32_t src_group;
    std::uint32_t dst_group;
    std::uint32_t words;

    bool operator==(const InterDescriptor&) const = default;
  };

  [[nodiscard]] const pim::OpCost& group_cost(std::uint32_t g) const {
    return groups_[g];
  }
  /// Longest per-block serial time — the phase's compute critical path.
  [[nodiscard]] Seconds max_group_time() const;
  /// Energy of one element's blocks for the phase.
  [[nodiscard]] Joules element_energy() const;
  [[nodiscard]] const std::vector<IntraDescriptor>& intra() const {
    return intra_;
  }
  [[nodiscard]] const std::vector<InterDescriptor>& inter() const {
    return inter_;
  }
  /// Total LUT constants fetched (host pre-processing demand).
  [[nodiscard]] std::uint64_t lut_fetches() const { return lut_fetches_; }

  void scatter(std::uint32_t group, std::span<const std::uint32_t> rows,
               std::uint32_t col, std::span<const float> values,
               std::uint32_t distinct_values) override;
  void gather(std::uint32_t group, std::span<const std::uint32_t> src_rows,
              std::uint32_t src_col, std::uint32_t dst_col) override;
  void arith(std::uint32_t group, pim::Opcode op, std::uint32_t col_a,
             std::uint32_t col_b, std::uint32_t col_dst,
             std::uint32_t rows) override;
  void fscale(std::uint32_t group, std::uint32_t col_src,
              std::uint32_t col_dst, float imm, std::uint32_t rows) override;
  void faxpy(std::uint32_t group, std::uint32_t col_dst,
             std::uint32_t col_src, float a, float c,
             std::uint32_t rows) override;
  void arith_rows(std::uint32_t group, pim::Opcode op, std::uint32_t col_a,
                  std::uint32_t col_b, std::uint32_t col_dst,
                  std::span<const std::uint32_t> rows) override;
  void fscale_rows(std::uint32_t group, std::uint32_t col_src,
                   std::uint32_t col_dst, float imm,
                   std::span<const std::uint32_t> rows) override;
  void intra_transfer(std::uint32_t src_group, std::uint32_t src_col,
                      std::span<const std::uint32_t> src_rows,
                      std::uint32_t dst_group, std::uint32_t dst_col,
                      std::span<const std::uint32_t> dst_rows) override;
  void inter_transfer(mesh::Face face, std::uint32_t src_group,
                      std::uint32_t src_col,
                      std::span<const std::uint32_t> src_rows,
                      std::uint32_t dst_group, std::uint32_t dst_col,
                      std::span<const std::uint32_t> dst_rows) override;
  void lut_fetch(std::uint32_t group, std::uint32_t count) override;

 private:
  SinkPricing pricing_;
  std::vector<pim::OpCost> groups_;
  std::vector<IntraDescriptor> intra_;
  std::vector<InterDescriptor> inter_;
  std::uint64_t lut_fetches_ = 0;
};

}  // namespace wavepim::mapping
