#pragma once

// A two-layer medium for the plan-level differential tests: elements in
// the upper half of the mesh (z >= dim / 2) hold a second material, and
// the per-element and per-face coefficients are probed here,
// independently of the simulator's own probing. The interface and, on
// reflective meshes, the walls split the elements into extra classes.

#include <array>
#include <vector>

#include "dg/physics.h"
#include "mapping/coefficients.h"
#include "mesh/structured_mesh.h"

namespace wavepim::mapping {

/// Per-element coefficient overrides, indexed like a ProgramCache's.
struct MediumCoeffs {
  std::vector<VolumeCoeffs> volume;
  std::vector<std::array<FluxCoeffs, 6>> flux;
};

template <typename Physics>
MediumCoeffs probe_layers(const mesh::StructuredMesh& mesh,
                          dg::FluxType flux,
                          const typename Physics::Material& lower,
                          const typename Physics::Material& upper) {
  const auto material = [&](mesh::ElementId e) {
    return mesh.coords_of(e)[2] >= mesh.dim() / 2 ? upper : lower;
  };
  MediumCoeffs out;
  out.volume.resize(mesh.num_elements());
  out.flux.resize(mesh.num_elements());
  for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
    const auto mine = material(e);
    out.volume[e] = probe_volume<Physics>(mine);
    for (const mesh::Face f : mesh::kAllFaces) {
      const auto nbr = mesh.neighbor(e, f);
      out.flux[e][mesh::index_of(f)] =
          nbr ? probe_flux<Physics>(f, flux, mine, material(*nbr), false)
              : probe_flux<Physics>(f, flux, mine, mine, true);
    }
  }
  return out;
}

/// The layered medium of `kind`'s physics.
inline MediumCoeffs layered_medium(dg::ProblemKind kind,
                                   const mesh::StructuredMesh& mesh) {
  const dg::FluxType flux = dg::flux_of(kind);
  if (kind == dg::ProblemKind::Acoustic) {
    return probe_layers<dg::AcousticPhysics>(mesh, flux, {},
                                             {.kappa = 4.0, .rho = 2.0});
  }
  return probe_layers<dg::ElasticPhysics>(
      mesh, flux, {.lambda = 2.0, .mu = 1.0, .rho = 1.0},
      {.lambda = 5.0, .mu = 2.0, .rho = 1.5});
}

}  // namespace wavepim::mapping
