#include "mesh/structured_mesh.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace wavepim::mesh {

StructuredMesh::StructuredMesh(int level, double extent, Boundary boundary)
    : level_(level),
      dim_(1u << level),
      extent_(extent),
      h_(extent / static_cast<double>(1u << level)),
      boundary_(boundary) {
  WAVEPIM_REQUIRE(level >= 0 && level <= kMaxLevel,
                  "refinement level out of range");
  WAVEPIM_REQUIRE(extent > 0.0, "domain extent must be positive");
}

std::array<std::uint32_t, 3> StructuredMesh::coords_of(ElementId e) const {
  WAVEPIM_REQUIRE(e < num_elements(), "element id out of range");
  return {e % dim_, (e / dim_) % dim_, e / (dim_ * dim_)};
}

ElementId StructuredMesh::element_at(std::uint32_t i, std::uint32_t j,
                                     std::uint32_t k) const {
  WAVEPIM_REQUIRE(i < dim_ && j < dim_ && k < dim_, "grid coords out of range");
  return i + dim_ * (j + dim_ * k);
}

std::array<double, 3> StructuredMesh::corner_of(ElementId e) const {
  const auto c = coords_of(e);
  return {c[0] * h_, c[1] * h_, c[2] * h_};
}

std::optional<ElementId> StructuredMesh::neighbor(ElementId e, Face f) const {
  auto c = coords_of(e);
  const auto a = index_of(axis_of(f));
  const int s = normal_sign(f);
  if (s < 0 && c[a] == 0) {
    if (boundary_ == Boundary::Reflective) {
      return std::nullopt;
    }
    c[a] = dim_ - 1;
  } else if (s > 0 && c[a] == dim_ - 1) {
    if (boundary_ == Boundary::Reflective) {
      return std::nullopt;
    }
    c[a] = 0;
  } else {
    c[a] = static_cast<std::uint32_t>(static_cast<int>(c[a]) + s);
  }
  return element_at(c[0], c[1], c[2]);
}

bool StructuredMesh::on_boundary(ElementId e, Face f) const {
  const auto c = coords_of(e);
  const auto a = index_of(axis_of(f));
  return normal_sign(f) < 0 ? (c[a] == 0) : (c[a] == dim_ - 1);
}

ElementId StructuredMesh::element_containing(double x, double y,
                                             double z) const {
  auto clamp_idx = [&](double v) {
    const auto idx = static_cast<std::int64_t>(std::floor(v / h_));
    return static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(idx, 0, dim_ - 1));
  };
  return element_at(clamp_idx(x), clamp_idx(y), clamp_idx(z));
}

std::uint32_t StructuredMesh::slice_of(ElementId e) const {
  return coords_of(e)[1];
}

}  // namespace wavepim::mesh
