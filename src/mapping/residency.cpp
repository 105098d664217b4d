#include "mapping/residency.h"

#include <limits>
#include <new>

#include "common/error.h"
#include "trace/trace.h"

namespace wavepim::mapping {

namespace {

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

constexpr mesh::Face kYMinusFaces[] = {mesh::Face::YMinus};
constexpr mesh::Face kXFaces[] = {mesh::Face::XMinus, mesh::Face::XPlus};
constexpr mesh::Face kZFaces[] = {mesh::Face::ZMinus, mesh::Face::ZPlus};
constexpr mesh::Face kYPlusFaces[] = {mesh::Face::YPlus};

}  // namespace

std::span<const mesh::Face> faces_of(FaceGroup g) {
  switch (g) {
    case FaceGroup::YMinus:
      return kYMinusFaces;
    case FaceGroup::X:
      return kXFaces;
    case FaceGroup::Z:
      return kZFaces;
    case FaceGroup::YPlus:
      return kYPlusFaces;
  }
  WAVEPIM_ASSERT(false, "unknown face group");
  return {};
}

FaceGroup group_of(BatchStep::Kind kind) {
  switch (kind) {
    case BatchStep::Kind::ComputeX:
      return FaceGroup::X;
    case BatchStep::Kind::ComputeZ:
      return FaceGroup::Z;
    case BatchStep::Kind::ComputeYMinus:
      return FaceGroup::YMinus;
    case BatchStep::Kind::ComputeYPlus:
      return FaceGroup::YPlus;
    case BatchStep::Kind::LoadSlices:
    case BatchStep::Kind::StoreSlices:
      break;
  }
  WAVEPIM_ASSERT(false, "step kind has no face group");
  return FaceGroup::X;
}

bool y_minus_deferred(const mesh::StructuredMesh& mesh, mesh::ElementId e) {
  return mesh.boundary() == mesh::Boundary::Periodic &&
         mesh.slice_of(e) == 0;
}

std::array<FaceGroup, 4> canonical_group_order(bool deferred) {
  if (deferred) {
    return {FaceGroup::X, FaceGroup::Z, FaceGroup::YPlus, FaceGroup::YMinus};
  }
  return {FaceGroup::YMinus, FaceGroup::X, FaceGroup::Z, FaceGroup::YPlus};
}

StagingCounts count_staging(const BatchSchedule& schedule,
                            Bytes slice_bytes) {
  StagingCounts counts;
  if (schedule.resident_slices >= schedule.num_slices) {
    return counts;  // single window: state never leaves the chip
  }
  counts.slice_loads = schedule.total_loads();
  counts.slice_stores = schedule.total_stores();
  counts.bytes =
      (counts.slice_loads + counts.slice_stores) * slice_bytes;
  return counts;
}

ResidencyManager::ResidencyManager(pim::Chip& chip,
                                   const mesh::StructuredMesh& mesh,
                                   std::uint32_t blocks_per_element,
                                   std::uint32_t rows, Bytes element_bytes)
    : chip_(chip),
      bpe_(blocks_per_element),
      rows_(rows),
      num_slices_(mesh.num_slices()),
      elements_per_slice_(mesh.elements_per_slice()),
      slice_bytes_(element_bytes * mesh.elements_per_slice()) {
  const std::uint32_t num_virtual = mesh.num_elements() * bpe_;
  const std::uint32_t capacity = chip_.config().num_blocks();
  const std::uint32_t blocks_per_slice = elements_per_slice_ * bpe_;
  resident_ = num_virtual <= capacity;

  // Elements slice-major; within a slice ids ascend (i fastest, then k).
  slice_order_.reserve(mesh.num_elements());
  for (std::uint32_t s = 0; s < num_slices_; ++s) {
    for (std::uint32_t k = 0; k < mesh.dim(); ++k) {
      for (std::uint32_t i = 0; i < mesh.dim(); ++i) {
        slice_order_.push_back(mesh.element_at(i, s, k));
      }
    }
  }

  table_.assign(num_virtual, nullptr);
  if (resident_) {
    window_ = num_slices_;
    chip_.ensure_blocks(num_virtual);
    for (std::uint32_t v = 0; v < num_virtual; ++v) {
      table_[v] = &chip_.block(v);
    }
  } else {
    const std::uint32_t cap_slices = capacity / blocks_per_slice;
    WAVEPIM_REQUIRE(cap_slices >= 2,
                    "batched residency needs at least two slices on chip");
    window_ = cap_slices - 1;  // one slot is the Fig. 7 staging slice
    chip_.ensure_blocks((window_ + 1) * blocks_per_slice);
    slot_of_slice_.assign(num_slices_, kNoSlot);
    for (std::uint32_t slot = window_ + 1; slot-- > 0;) {
      free_slots_.push_back(slot);
    }
    backing_.reset(static_cast<float*>(std::calloc(
        static_cast<std::size_t>(num_virtual) * pim::Block::kWords * rows_,
        sizeof(float))));
    if (!backing_) {
      throw std::bad_alloc();
    }
  }
  schedule_ = build_flux_batch_schedule(
      num_slices_, window_, mesh.boundary() == mesh::Boundary::Periodic);
}

std::span<float> ResidencyManager::backing_column(std::uint32_t vblock,
                                                  std::uint32_t col) {
  const std::size_t offset =
      (static_cast<std::size_t>(vblock) * pim::Block::kWords + col) * rows_;
  return {backing_.get() + offset, rows_};
}

void ResidencyManager::bind_slice(std::uint32_t slice, std::uint32_t slot) {
  const std::uint32_t blocks_per_slice = elements_per_slice_ * bpe_;
  const mesh::ElementId* elements =
      slice_order_.data() +
      static_cast<std::size_t>(slice) * elements_per_slice_;
  for (std::uint32_t l = 0; l < elements_per_slice_; ++l) {
    const std::uint32_t physical_base = slot * blocks_per_slice + l * bpe_;
    for (std::uint32_t g = 0; g < bpe_; ++g) {
      table_[static_cast<std::size_t>(elements[l]) * bpe_ + g] =
          &chip_.block(physical_base + g);
    }
  }
}

void ResidencyManager::load_slices(std::uint32_t first, std::uint32_t last) {
  if (resident_) {
    return;
  }
  for (std::uint32_t s = first; s <= last; ++s) {
    trace::Span span("hbm.stage", static_cast<double>(s));
    WAVEPIM_ASSERT(slot_of_slice_[s] == kNoSlot, "slice already resident");
    WAVEPIM_ASSERT(!free_slots_.empty(), "residency window exhausted");
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slot_of_slice_[s] = slot;
    bind_slice(s, slot);

    const mesh::ElementId* elements =
        slice_order_.data() +
        static_cast<std::size_t>(s) * elements_per_slice_;
    for (std::uint32_t l = 0; l < elements_per_slice_; ++l) {
      for (std::uint32_t g = 0; g < bpe_; ++g) {
        const std::uint32_t vb = elements[l] * bpe_ + g;
        pim::Block& block = *table_[vb];
        for (std::uint32_t col = 0; col < pim::Block::kWords; ++col) {
          block.load_column(col, backing_column(vb, col));
        }
      }
    }
    ++slice_loads_;
    bytes_staged_ += slice_bytes_;
    hbm_cost_ += chip_.hbm().transfer_cost(slice_bytes_);
    trace::counter("hbm.bytes", static_cast<double>(bytes_staged_));
  }
}

void ResidencyManager::store_slices(std::uint32_t first, std::uint32_t last) {
  if (resident_) {
    return;
  }
  for (std::uint32_t s = first; s <= last; ++s) {
    trace::Span span("hbm.stage", static_cast<double>(s));
    const std::uint32_t slot = slot_of_slice_[s];
    WAVEPIM_ASSERT(slot != kNoSlot, "storing a non-resident slice");

    const mesh::ElementId* elements =
        slice_order_.data() +
        static_cast<std::size_t>(s) * elements_per_slice_;
    for (std::uint32_t l = 0; l < elements_per_slice_; ++l) {
      for (std::uint32_t g = 0; g < bpe_; ++g) {
        const std::uint32_t vb = elements[l] * bpe_ + g;
        const pim::Block& block = *table_[vb];
        for (std::uint32_t col = 0; col < pim::Block::kWords; ++col) {
          block.store_column(col, backing_column(vb, col));
        }
        table_[vb] = nullptr;
      }
    }
    slot_of_slice_[s] = kNoSlot;
    free_slots_.push_back(slot);
    ++slice_stores_;
    bytes_staged_ += slice_bytes_;
    hbm_cost_ += chip_.hbm().transfer_cost(slice_bytes_);
    trace::counter("hbm.bytes", static_cast<double>(bytes_staged_));
  }
}

}  // namespace wavepim::mapping
