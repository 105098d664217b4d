#include "mapping/config.h"

#include "common/error.h"

namespace wavepim::mapping {

std::string Problem::name() const {
  return std::string(dg::to_string(kind)) + "_" +
         std::to_string(refinement_level);
}

std::array<Problem, 6> paper_benchmarks() {
  using dg::ProblemKind;
  return {{
      {ProblemKind::Acoustic, 4, 8},
      {ProblemKind::ElasticCentral, 4, 8},
      {ProblemKind::ElasticRiemann, 4, 8},
      {ProblemKind::Acoustic, 5, 8},
      {ProblemKind::ElasticCentral, 5, 8},
      {ProblemKind::ElasticRiemann, 5, 8},
  }};
}

std::string MappingConfig::label() const {
  std::string l = to_string(expansion);
  if (batched) {
    // The paper writes plain "B" when the naive layout is batched.
    l = (expansion == ExpansionMode::None) ? "B" : l + "&B";
  }
  return l;
}

MappingConfig config_for_mode(const Problem& problem,
                              const pim::ChipConfig& chip,
                              ExpansionMode mode) {
  const std::uint64_t blocks = chip.num_blocks();
  const std::uint64_t bpe = blocks_per_element(mode);
  const std::uint64_t dim = 1ull << problem.refinement_level;
  MappingConfig c;
  c.expansion = mode;
  if (problem.num_elements() * bpe <= blocks) {
    c.batched = false;
    c.num_batches = 1;
    c.elements_per_batch = problem.num_elements();
    c.slices_per_batch = static_cast<std::uint32_t>(dim);
    return c;
  }
  // Batched: whole Y-slices per batch (Fig. 7).
  const std::uint64_t elements_per_slice = dim * dim;
  const std::uint64_t slices_fit = blocks / (elements_per_slice * bpe);
  if (slices_fit == 0) {
    throw CapacityError("one mesh slice of " + problem.name() +
                        " does not fit on " + chip.name + " with mode " +
                        to_string(mode));
  }
  c.batched = true;
  c.slices_per_batch = static_cast<std::uint32_t>(std::min(slices_fit, dim));
  c.num_batches = static_cast<std::uint32_t>(
      (dim + c.slices_per_batch - 1) / c.slices_per_batch);
  c.elements_per_batch = c.slices_per_batch * elements_per_slice;
  return c;
}

MappingConfig choose_config(const Problem& problem,
                            const pim::ChipConfig& chip) {
  const auto modes = applicable_modes(problem.kind);
  // Most parallel mode that holds the whole model on chip; otherwise
  // batch at the least-expanded mode.
  for (auto it = modes.rbegin(); it != modes.rend(); ++it) {
    if (problem.num_elements() * blocks_per_element(*it) <=
        chip.num_blocks()) {
      return config_for_mode(problem, chip, *it);
    }
  }
  return config_for_mode(problem, chip, modes.front());
}

}  // namespace wavepim::mapping
