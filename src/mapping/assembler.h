#pragma once

#include "mapping/element_program.h"
#include "mapping/program_cache.h"
#include "mapping/sinks.h"
#include "mesh/structured_mesh.h"
#include "pim/controller.h"

namespace wavepim::mapping {

/// Lowers the emitted kernel streams into a pim::LoweredProgram — the
/// actual instruction sequence the host would send to the ISA-based PIM
/// (§4.1). Executing the lowered program through pim::Controller is
/// equivalent to executing the emitted calls one by one on the blocks (the
/// functional oracle's sink in tests/support); the assembler is what
/// closes the loop between the mapping layer and the wire-level ISA.
class AssemblerSink : public ProgramSink {
 public:
  AssemblerSink(const mesh::StructuredMesh& mesh, Placement placement);

  /// Element whose program is being emitted (resolves neighbour blocks).
  void bind(mesh::ElementId element) { element_ = element; }

  [[nodiscard]] const pim::LoweredProgram& program() const {
    return program_;
  }
  [[nodiscard]] pim::LoweredProgram take_program() {
    return std::move(program_);
  }

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
  [[nodiscard]] std::uint32_t block_of(std::uint32_t group) const {
    return placement_.block_of(element_, group);
  }
  std::uint32_t rows_table(std::span<const std::uint32_t> rows);

  const mesh::StructuredMesh& mesh_;
  Placement placement_;
  mesh::ElementId element_ = 0;
  pim::LoweredProgram program_;
};

/// Assembles the full per-stage program of a (small) problem: Volume for
/// every element, Flux for every face, one Integration stage.
pim::LoweredProgram assemble_stage(const ElementSetup& setup,
                                   const mesh::StructuredMesh& mesh,
                                   Placement placement, int stage, float dt);

/// Cached variant: replays `cache`'s per-class streams through the
/// AssemblerSink instead of re-emitting every element's kernels. The
/// replayed sink-call sequence matches direct emission, so the lowered
/// program is bit-identical — only the assembly time changes.
pim::LoweredProgram assemble_stage(const mesh::StructuredMesh& mesh,
                                   Placement placement, int stage, float dt,
                                   ProgramCache& cache);

}  // namespace wavepim::mapping
