#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "mapping/config.h"
#include "mesh/structured_mesh.h"

namespace wavepim::eval {

/// Which model family produces a cell's metrics.
///
///  * `Paper` — the analytic estimator + GPU roofline stack behind
///    Figs. 11/12: one scenario per paper benchmark, one cell per
///    platform row of the comparison grid.
///  * `Sim`   — the bit-true functional simulator on a small mesh: one
///    scenario per (physics x expansion x boundary x materials x
///    residency window) point, one cell per scenario.
enum class CellKind : std::uint8_t { Paper, Sim };

[[nodiscard]] const char* to_string(CellKind kind);

/// Per-element material variation of a sim scenario. `Layered` splits
/// the mesh into two horizontal material layers (the heterogeneous
/// media the paper's LUT path exists for).
enum class Materials : std::uint8_t { Uniform, Layered };

[[nodiscard]] const char* to_string(Materials materials);

/// One point of the evaluation matrix (see CellKind for the two
/// families). A scenario is a pure description — `run_scenario` in
/// runner.h turns it into metric cells.
struct Scenario {
  CellKind kind = CellKind::Paper;
  mapping::Problem problem{dg::ProblemKind::Acoustic, 4, 8};

  /// Paper cells: projected run length (the paper evaluates 1024 steps).
  std::uint64_t steps = 1024;

  // Sim-cell axes.
  mapping::ExpansionMode expansion = mapping::ExpansionMode::None;
  mesh::Boundary boundary = mesh::Boundary::Periodic;
  Materials materials = Materials::Uniform;
  /// 0 = fully resident; otherwise the chip is capped at this many
  /// blocks, forcing the batched residency window (over-capacity axis).
  std::uint32_t block_limit = 0;
  int sim_steps = 2;

  /// Stable scenario identifier, e.g. `paper/Acoustic_4` or
  /// `sim/acoustic-l2/N/periodic/uniform/win32`. Cell ids are
  /// derived from it (paper scenarios append the platform name).
  [[nodiscard]] std::string id() const;
};

/// Matrix selection: `Reduced` is the CI gate (small meshes, a subset
/// of paper benchmarks, one over-capacity window); `Full` is the
/// complete cross product incl. both level-5 paper benchmarks and the
/// extended sim axes, and carries enough benchmarks to evaluate the
/// Fig. 11/12 shape claims.
enum class MatrixKind : std::uint8_t { Reduced, Full };

[[nodiscard]] const char* to_string(MatrixKind kind);
[[nodiscard]] bool parse_matrix(std::string_view name, MatrixKind& out);

/// Enumerates the scenarios of a matrix. Deterministic order; every
/// scenario id is unique, and the reduced matrix is a subset of the
/// full one (guarded by tests/eval/matrix_test.cpp).
[[nodiscard]] std::vector<Scenario> build_matrix(MatrixKind kind);

}  // namespace wavepim::eval
