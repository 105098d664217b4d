#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "eval/figures.h"
#include "eval/matrix.h"

namespace wavepim::eval {

/// One evaluated matrix cell. Labels are exact-match facts (the field
/// hash, the expansion, the chosen Table 5 config); metrics are
/// numeric and compared against a baseline with a relative tolerance.
/// Both keep insertion order so a serialised cell is byte-stable.
struct CellResult {
  std::string id;
  CellKind kind = CellKind::Paper;
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<std::pair<std::string, double>> metrics;
};

struct RunOptions {
  /// Worker threads for the functional simulator cells: 1 = serial,
  /// 0 = the process-global pool. Metrics are identical for any value
  /// (guarded by tests/eval/determinism_test.cpp).
  std::size_t threads = 0;
  /// Called before each scenario runs (progress reporting).
  std::function<void(const Scenario&)> progress;
};

/// Runs one scenario. Paper scenarios produce one cell per platform row
/// of the comparison grid (and append their grid to `figures` when
/// non-null); sim scenarios produce exactly one cell.
[[nodiscard]] std::vector<CellResult> run_scenario(const Scenario& scenario,
                                                   const RunOptions& options,
                                                   FigureData* figures);

/// A fully evaluated matrix: every cell, the Fig. 11/12 grids of the
/// paper scenarios, the Fig. 14 grid (complete runs only),
/// and the shape-claim verdicts those grids support.
struct MatrixResult {
  MatrixKind matrix = MatrixKind::Reduced;
  std::vector<CellResult> cells;
  FigureData figures;
  Fig14Data fig14;  ///< empty unless all paper benchmarks were run
  std::vector<ShapeClaim> claims;
};

[[nodiscard]] MatrixResult run_matrix(MatrixKind kind,
                                      std::span<const Scenario> scenarios,
                                      const RunOptions& options = {});

}  // namespace wavepim::eval
