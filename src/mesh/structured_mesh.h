#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "mesh/face.h"

namespace wavepim::mesh {

/// Linear element index into the mesh.
using ElementId = std::uint32_t;

/// Treatment of the domain boundary.
///
/// `Periodic` wraps neighbours around (used by the conservation and
/// plane-wave tests); `Reflective` is a rigid wall (pressure-release /
/// traction-free handled at the flux level by mirroring the state).
enum class Boundary : std::uint8_t { Periodic, Reflective };

/// A structured mesh of (2^level)^3 identical cube elements covering an
/// `extent`-sided cube, mirroring the paper's "Refinement Level n
/// discretises the domain into (2^n)^3 elements" (Table 1).
class StructuredMesh {
 public:
  /// Finest refinement level: (2^10)^3 elements.
  static constexpr int kMaxLevel = 10;

  /// `level` in [0, kMaxLevel]; `extent` is the physical edge length of
  /// the domain.
  StructuredMesh(int level, double extent, Boundary boundary);

  [[nodiscard]] int level() const { return level_; }
  [[nodiscard]] Boundary boundary() const { return boundary_; }
  /// Number of elements per axis (2^level).
  [[nodiscard]] std::uint32_t dim() const { return dim_; }
  [[nodiscard]] std::uint32_t num_elements() const {
    return dim_ * dim_ * dim_;
  }
  /// Physical edge length of one element.
  [[nodiscard]] double element_size() const { return h_; }
  [[nodiscard]] double extent() const { return extent_; }

  /// (i, j, k) grid coordinates of an element; i is fastest (x axis).
  [[nodiscard]] std::array<std::uint32_t, 3> coords_of(ElementId e) const;
  [[nodiscard]] ElementId element_at(std::uint32_t i, std::uint32_t j,
                                     std::uint32_t k) const;

  /// Physical coordinates of the low corner of an element.
  [[nodiscard]] std::array<double, 3> corner_of(ElementId e) const;

  /// Neighbour across a face; nullopt on a reflective boundary.
  [[nodiscard]] std::optional<ElementId> neighbor(ElementId e, Face f) const;

  /// True if the face lies on the physical boundary (regardless of whether
  /// the boundary wraps periodically).
  [[nodiscard]] bool on_boundary(ElementId e, Face f) const;

  /// The element that contains a physical point (clamped to the domain).
  [[nodiscard]] ElementId element_containing(double x, double y,
                                             double z) const;

  /// --- Slice decomposition (paper §6.1.2, Fig. 7) ------------------------
  /// Flux batching splits the mesh into `dim()` slices along the Y axis:
  /// X- and Z-direction fluxes stay within a slice, only Y-direction
  /// fluxes cross slices.
  [[nodiscard]] std::uint32_t num_slices() const { return dim_; }
  [[nodiscard]] std::uint32_t slice_of(ElementId e) const;
  [[nodiscard]] std::uint32_t elements_per_slice() const {
    return dim_ * dim_;
  }

 private:
  int level_;
  std::uint32_t dim_;
  double extent_;
  double h_;
  Boundary boundary_;
};

}  // namespace wavepim::mesh
