#include "mapping/program_cache.h"

#include <utility>

#include "common/error.h"

namespace wavepim::mapping {

using mesh::Face;

// ---------------------------------------------------------------------------
// ProgramArena
// ---------------------------------------------------------------------------

std::uint32_t ProgramArena::add_rows(std::span<const std::uint32_t> rows) {
  std::vector<std::uint32_t> key(rows.begin(), rows.end());
  const auto it = row_ids_.find(key);
  if (it != row_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(row_tables_.size());
  row_tables_.push_back(key);
  row_ids_.emplace(std::move(key), id);
  return id;
}

std::uint32_t ProgramArena::add_values(std::span<const float> values) {
  std::vector<float> key(values.begin(), values.end());
  const auto it = value_ids_.find(key);
  if (it != value_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(value_tables_.size());
  value_tables_.push_back(key);
  value_ids_.emplace(std::move(key), id);
  return id;
}

// ---------------------------------------------------------------------------
// RelocatableAssembler
// ---------------------------------------------------------------------------

void RelocatableAssembler::scatter(std::uint32_t group,
                                   std::span<const std::uint32_t> rows,
                                   std::uint32_t col,
                                   std::span<const float> values,
                                   std::uint32_t distinct_values) {
  pim::Instruction inst;
  inst.op = pim::Opcode::BroadcastRow;
  inst.block = group;
  inst.col_dst = static_cast<std::uint8_t>(col);
  inst.word_count = distinct_values;
  inst.table_a = arena_.add_rows(rows);
  inst.table_b = arena_.add_values(values);
  arena_.append(inst);
}

void RelocatableAssembler::gather(std::uint32_t group,
                                  std::span<const std::uint32_t> src_rows,
                                  std::uint32_t src_col,
                                  std::uint32_t dst_col) {
  pim::Instruction inst;
  inst.op = pim::Opcode::GatherRows;
  inst.block = group;
  inst.col_a = static_cast<std::uint8_t>(src_col);
  inst.col_dst = static_cast<std::uint8_t>(dst_col);
  inst.table_a = arena_.add_rows(src_rows);
  arena_.append(inst);
}

void RelocatableAssembler::arith(std::uint32_t group, pim::Opcode op,
                                 std::uint32_t col_a, std::uint32_t col_b,
                                 std::uint32_t col_dst, std::uint32_t rows) {
  pim::Instruction inst;
  inst.op = op;
  inst.block = group;
  inst.col_a = static_cast<std::uint8_t>(col_a);
  inst.col_b = static_cast<std::uint8_t>(col_b);
  inst.col_dst = static_cast<std::uint8_t>(col_dst);
  inst.row_count = rows;
  arena_.append(inst);
}

void RelocatableAssembler::fscale(std::uint32_t group, std::uint32_t col_src,
                                  std::uint32_t col_dst, float imm,
                                  std::uint32_t rows) {
  pim::Instruction inst;
  inst.op = pim::Opcode::Fscale;
  inst.block = group;
  inst.col_a = static_cast<std::uint8_t>(col_src);
  inst.col_dst = static_cast<std::uint8_t>(col_dst);
  inst.imm = imm;
  inst.row_count = rows;
  arena_.append(inst);
}

void RelocatableAssembler::faxpy(std::uint32_t group, std::uint32_t col_dst,
                                 std::uint32_t col_src, float a, float c,
                                 std::uint32_t rows) {
  pim::Instruction inst;
  inst.op = pim::Opcode::Faxpy;
  inst.block = group;
  inst.col_a = static_cast<std::uint8_t>(col_src);
  inst.col_dst = static_cast<std::uint8_t>(col_dst);
  inst.imm = a;
  inst.imm2 = c;
  inst.row_count = rows;
  arena_.append(inst);
}

void RelocatableAssembler::arith_rows(std::uint32_t group, pim::Opcode op,
                                      std::uint32_t col_a, std::uint32_t col_b,
                                      std::uint32_t col_dst,
                                      std::span<const std::uint32_t> rows) {
  pim::Instruction inst;
  inst.op = op;
  inst.block = group;
  inst.col_a = static_cast<std::uint8_t>(col_a);
  inst.col_b = static_cast<std::uint8_t>(col_b);
  inst.col_dst = static_cast<std::uint8_t>(col_dst);
  inst.row_count = static_cast<std::uint32_t>(rows.size());
  inst.table_a = arena_.add_rows(rows);
  arena_.append(inst);
}

void RelocatableAssembler::fscale_rows(std::uint32_t group,
                                       std::uint32_t col_src,
                                       std::uint32_t col_dst, float imm,
                                       std::span<const std::uint32_t> rows) {
  pim::Instruction inst;
  inst.op = pim::Opcode::Fscale;
  inst.block = group;
  inst.col_a = static_cast<std::uint8_t>(col_src);
  inst.col_dst = static_cast<std::uint8_t>(col_dst);
  inst.imm = imm;
  inst.row_count = static_cast<std::uint32_t>(rows.size());
  inst.table_a = arena_.add_rows(rows);
  arena_.append(inst);
}

pim::Instruction RelocatableAssembler::memcpy_like(
    std::uint32_t src_group, std::uint32_t src_col,
    std::span<const std::uint32_t> src_rows, std::uint32_t dst_group,
    std::uint32_t dst_col, std::span<const std::uint32_t> dst_rows) {
  pim::Instruction inst;
  inst.op = pim::Opcode::MemCpy;
  inst.block = src_group;
  inst.peer_block = dst_group;
  inst.col_a = static_cast<std::uint8_t>(src_col);
  inst.col_dst = static_cast<std::uint8_t>(dst_col);
  inst.word_count = static_cast<std::uint32_t>(src_rows.size());
  inst.table_a = arena_.add_rows(src_rows);
  inst.table_b = arena_.add_rows(dst_rows);
  return inst;
}

void RelocatableAssembler::intra_transfer(
    std::uint32_t src_group, std::uint32_t src_col,
    std::span<const std::uint32_t> src_rows, std::uint32_t dst_group,
    std::uint32_t dst_col, std::span<const std::uint32_t> dst_rows) {
  pim::Instruction inst = memcpy_like(src_group, src_col, src_rows, dst_group,
                                      dst_col, dst_rows);
  inst.row = 0;
  arena_.append(inst);
}

void RelocatableAssembler::inter_transfer(
    Face face, std::uint32_t src_group, std::uint32_t src_col,
    std::span<const std::uint32_t> src_rows, std::uint32_t dst_group,
    std::uint32_t dst_col, std::span<const std::uint32_t> dst_rows) {
  pim::Instruction inst = memcpy_like(src_group, src_col, src_rows, dst_group,
                                      dst_col, dst_rows);
  inst.row = 1u + mesh::index_of(face);
  arena_.append(inst);
}

void RelocatableAssembler::lut_fetch(std::uint32_t group,
                                     std::uint32_t count) {
  pim::Instruction inst;
  inst.op = pim::Opcode::LutLookup;
  inst.block = group;
  inst.word_count = count;
  arena_.append(inst);
}

// ---------------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------------

void replay(const ProgramArena& arena, StreamRef stream, ProgramSink& sink) {
  for (const pim::Instruction& inst : arena.view(stream)) {
    switch (inst.op) {
      case pim::Opcode::BroadcastRow:
        sink.scatter(inst.block, arena.rows(inst.table_a), inst.col_dst,
                     arena.values(inst.table_b), inst.word_count);
        break;
      case pim::Opcode::GatherRows:
        sink.gather(inst.block, arena.rows(inst.table_a), inst.col_a,
                    inst.col_dst);
        break;
      case pim::Opcode::Fadd:
      case pim::Opcode::Fsub:
      case pim::Opcode::Fmul:
        if (inst.table_a == pim::Instruction::kNoTable) {
          sink.arith(inst.block, inst.op, inst.col_a, inst.col_b,
                     inst.col_dst, inst.row_count);
        } else {
          sink.arith_rows(inst.block, inst.op, inst.col_a, inst.col_b,
                          inst.col_dst, arena.rows(inst.table_a));
        }
        break;
      case pim::Opcode::Fscale:
        if (inst.table_a == pim::Instruction::kNoTable) {
          sink.fscale(inst.block, inst.col_a, inst.col_dst, inst.imm,
                      inst.row_count);
        } else {
          sink.fscale_rows(inst.block, inst.col_a, inst.col_dst, inst.imm,
                           arena.rows(inst.table_a));
        }
        break;
      case pim::Opcode::Faxpy:
        sink.faxpy(inst.block, inst.col_dst, inst.col_a, inst.imm, inst.imm2,
                   inst.row_count);
        break;
      case pim::Opcode::MemCpy:
        if (inst.row == 0) {
          sink.intra_transfer(inst.block, inst.col_a,
                              arena.rows(inst.table_a), inst.peer_block,
                              inst.col_dst, arena.rows(inst.table_b));
        } else {
          sink.inter_transfer(static_cast<Face>(inst.row - 1), inst.block,
                              inst.col_a, arena.rows(inst.table_a),
                              inst.peer_block, inst.col_dst,
                              arena.rows(inst.table_b));
        }
        break;
      case pim::Opcode::LutLookup:
        sink.lut_fetch(inst.block, inst.word_count);
        break;
      default:
        WAVEPIM_REQUIRE(false, "unexpected opcode in a cached stream");
    }
  }
}

// ---------------------------------------------------------------------------
// ProgramCache
// ---------------------------------------------------------------------------

namespace {

/// Exact (bitwise-on-value) interning of a coefficient set; id 0 is
/// reserved for "the setup's uniform default".
class CoeffInterner {
 public:
  std::uint32_t intern(std::vector<float> flat) {
    const auto it = ids_.find(flat);
    if (it != ids_.end()) {
      return it->second;
    }
    const auto id = static_cast<std::uint32_t>(ids_.size() + 1);
    ids_.emplace(std::move(flat), id);
    return id;
  }

 private:
  std::map<std::vector<float>, std::uint32_t> ids_;
};

std::vector<float> flatten(const VolumeCoeffs& v) {
  std::vector<float> flat;
  flat.push_back(static_cast<float>(v.num_vars));
  for (const auto& axis : v.coeff) {
    flat.insert(flat.end(), axis.begin(), axis.end());
  }
  return flat;
}

std::vector<float> flatten(const FluxCoeffs& f) {
  std::vector<float> flat;
  flat.push_back(static_cast<float>(f.num_vars));
  flat.insert(flat.end(), f.alpha.begin(), f.alpha.end());
  flat.insert(flat.end(), f.beta.begin(), f.beta.end());
  return flat;
}

}  // namespace

ProgramCache::ProgramCache(
    const ElementSetup& setup, const mesh::StructuredMesh& mesh,
    const std::vector<VolumeCoeffs>* volume_overrides,
    const std::vector<std::array<FluxCoeffs, 6>>* flux_overrides)
    : setup_(setup) {
  const bool has_volume = volume_overrides && !volume_overrides->empty();
  const bool has_flux = flux_overrides && !flux_overrides->empty();
  WAVEPIM_REQUIRE(!has_volume ||
                      volume_overrides->size() == mesh.num_elements(),
                  "one volume override per element required");
  WAVEPIM_REQUIRE(!has_flux || flux_overrides->size() == mesh.num_elements(),
                  "one flux override set per element required");

  CoeffInterner volume_ids;
  CoeffInterner flux_ids;
  std::map<ShapeClassKey, std::uint32_t> class_ids;
  class_of_.resize(mesh.num_elements());

  for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
    ShapeClassKey key;
    if (has_volume) {
      key.volume_coeff_id = volume_ids.intern(flatten((*volume_overrides)[e]));
    }
    for (Face f : mesh::kAllFaces) {
      FaceClass& fc = key.faces[mesh::index_of(f)];
      fc.boundary = !mesh.neighbor(e, f).has_value();
      if (has_flux) {
        fc.coeff_id =
            flux_ids.intern(flatten((*flux_overrides)[e][mesh::index_of(f)]));
      }
    }
    auto it = class_ids.find(key);
    if (it == class_ids.end()) {
      const VolumeCoeffs* vc = has_volume ? &(*volume_overrides)[e] : nullptr;
      std::array<const FluxCoeffs*, 6> fcs{};
      if (has_flux) {
        for (std::size_t i = 0; i < 6; ++i) {
          fcs[i] = &(*flux_overrides)[e][i];
        }
      }
      it = class_ids.emplace(key, lower_class(key, vc, fcs)).first;
    }
    class_of_[e] = it->second;
  }
}

std::uint32_t ProgramCache::lower_class(
    const ShapeClassKey& key, const VolumeCoeffs* volume,
    const std::array<const FluxCoeffs*, 6>& flux) {
  RelocatableAssembler sink(arena_);
  ClassStreams streams;

  std::uint32_t begin = arena_.num_instructions();
  emit_volume(setup_, sink, volume);
  streams.volume = {begin, arena_.num_instructions() - begin};

  for (Face f : mesh::kAllFaces) {
    const auto i = mesh::index_of(f);
    begin = arena_.num_instructions();
    emit_flux_face(setup_, f, key.faces[i].boundary, sink, flux[i]);
    streams.flux[i] = {begin, arena_.num_instructions() - begin};
  }

  classes_.push_back(streams);
  return static_cast<std::uint32_t>(classes_.size() - 1);
}

}  // namespace wavepim::mapping
