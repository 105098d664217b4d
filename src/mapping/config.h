#pragma once

#include <cstdint>
#include <string>

#include "mapping/layout.h"
#include "pim/params.h"

namespace wavepim::mapping {

/// The problem instance being mapped.
struct Problem {
  dg::ProblemKind kind = dg::ProblemKind::Acoustic;
  int refinement_level = 4;
  int n1d = 8;  ///< 8 -> the paper's 512-node elements

  [[nodiscard]] std::uint64_t num_elements() const {
    const std::uint64_t d = 1ull << refinement_level;
    return d * d * d;
  }
  [[nodiscard]] std::uint64_t nodes_per_element() const {
    return static_cast<std::uint64_t>(n1d) * n1d * n1d;
  }
  [[nodiscard]] std::uint32_t num_vars() const {
    return dg::is_elastic(kind) ? 9 : 4;
  }
  [[nodiscard]] std::string name() const;
};

/// The paper's six evaluation benchmarks (Table 6).
std::array<Problem, 6> paper_benchmarks();

/// Chosen implementation configuration for (problem, chip) — one cell of
/// the paper's Table 5.
struct MappingConfig {
  ExpansionMode expansion = ExpansionMode::None;
  bool batched = false;
  std::uint32_t num_batches = 1;
  std::uint64_t elements_per_batch = 0;
  std::uint32_t slices_per_batch = 0;  ///< flux batching granularity (Fig. 7)

  /// Table 5 label: "N", "Ep", "Er", "Er&Ep", with "&B" appended when
  /// batching is required.
  [[nodiscard]] std::string label() const;
};

/// The geometry of `problem` under `mode` on `chip`: resident when every
/// element's blocks fit, otherwise batched in whole Y-slices so the
/// Fig. 7 flux scheme applies. Throws CapacityError if even one slice
/// cannot fit.
MappingConfig config_for_mode(const Problem& problem,
                              const pim::ChipConfig& chip,
                              ExpansionMode mode);

/// Reproduces the Table 5 decision: pick the most-expanded applicable mode
/// that fits the chip without batching; otherwise batch at the least-
/// expanded mode. Batches are whole Y-slices so the Fig. 7 flux scheme
/// applies. Throws CapacityError if even one slice cannot fit.
MappingConfig choose_config(const Problem& problem,
                            const pim::ChipConfig& chip);

}  // namespace wavepim::mapping
