#include "eval/runner.h"

#include <memory>

#include "dg/material.h"
#include "mesh/structured_mesh.h"
#include "service/job.h"

namespace wavepim::eval {

namespace {

/// Deterministic non-trivial initial state — the BatchConformance
/// suite's seed, so matrix cells and the conformance tests exercise the
/// same trajectories.
dg::Field seeded_state(const mapping::PimSimulation& sim) {
  dg::Field u(sim.mesh().num_elements(), sim.setup().problem().num_vars(),
              static_cast<std::size_t>(sim.setup().ref().num_nodes()));
  for (std::size_t e = 0; e < u.num_elements(); ++e) {
    for (std::size_t v = 0; v < u.num_vars(); ++v) {
      for (std::size_t n = 0; n < u.nodes_per_element(); ++n) {
        u.value(e, v, n) =
            0.01f * static_cast<float>((e * 131 + v * 17 + n * 3) % 97) -
            0.25f;
      }
    }
  }
  return u;
}

/// Builds the scenario's simulation (uniform or two-layer media).
std::unique_ptr<mapping::PimSimulation> make_simulation(
    const Scenario& s) {
  pim::ChipConfig chip = pim::chip_512mb();
  chip.block_limit = s.block_limit;
  chip.net_backend = s.net_backend;
  if (s.materials == Materials::Uniform) {
    return std::make_unique<mapping::PimSimulation>(s.problem, s.expansion,
                                                    chip, s.boundary);
  }
  // Layered media: upper half of the mesh (z above the midplane) is a
  // stiffer, denser material — multiple coefficient classes per run.
  mesh::StructuredMesh mesh(s.problem.refinement_level, 1.0, s.boundary);
  const std::uint32_t half = (1u << s.problem.refinement_level) / 2;
  if (dg::is_elastic(s.problem.kind)) {
    dg::MaterialField<dg::ElasticMaterial> mats(
        mesh.num_elements(), {.lambda = 2.0, .mu = 1.0, .rho = 1.0});
    for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
      if (mesh.coords_of(e)[2] >= half) {
        mats.set(e, {.lambda = 4.0, .mu = 2.0, .rho = 2.0});
      }
    }
    return std::make_unique<mapping::PimSimulation>(s.problem, s.expansion,
                                                    chip, mats, s.boundary);
  }
  dg::MaterialField<dg::AcousticMaterial> mats(mesh.num_elements(), {});
  for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
    if (mesh.coords_of(e)[2] >= half) {
      mats.set(e, {.kappa = 4.0, .rho = 2.0});
    }
  }
  return std::make_unique<mapping::PimSimulation>(s.problem, s.expansion,
                                                  chip, mats, s.boundary);
}

CellResult run_sim_cell(const Scenario& s, const RunOptions& options) {
  auto sim = make_simulation(s);
  sim->set_num_threads(options.threads);
  sim->load_state(seeded_state(*sim));
  for (int i = 0; i < s.sim_steps; ++i) {
    sim->step(2.0e-4);
  }
  const dg::Field out = sim->read_state();

  CellResult cell;
  cell.id = s.id();
  cell.kind = CellKind::Sim;
  cell.labels.emplace_back("expansion", mapping::to_string(s.expansion));
  cell.labels.emplace_back("boundary", s.boundary == mesh::Boundary::Periodic
                                           ? "periodic"
                                           : "reflective");
  cell.labels.emplace_back("materials", to_string(s.materials));
  cell.labels.emplace_back(
      "residency", sim->residency().is_resident() ? "resident" : "windowed");
  // The backend label (like the `net_*` link metrics below) is only
  // attached to cycle cells, keeping analytic cells byte-identical to
  // the pre-seam baseline.
  if (s.net_backend == pim::NetBackendKind::Cycle) {
    cell.labels.emplace_back("net_backend", pim::to_string(s.net_backend));
  }
  cell.labels.emplace_back("field_hash", service::field_hash(out));

  const auto& costs = sim->costs();
  const auto add_cost = [&cell](const char* name, const pim::OpCost& cost) {
    cell.metrics.emplace_back(std::string(name) + "_time_s",
                              cost.time.value());
    cell.metrics.emplace_back(std::string(name) + "_energy_j",
                              cost.energy.value());
  };
  add_cost("volume", costs.volume);
  add_cost("flux", costs.flux);
  add_cost("integration", costs.integration);
  add_cost("network", costs.network);
  add_cost("total", costs.total());
  add_cost("hbm", costs.hbm);

  const auto& net = sim->net_stats();
  cell.metrics.emplace_back("net_schedules",
                            static_cast<double>(net.schedules));
  cell.metrics.emplace_back("net_transfers",
                            static_cast<double>(net.transfers));
  cell.metrics.emplace_back("net_words", static_cast<double>(net.words));
  cell.metrics.emplace_back("net_serial_s", net.serial_sum.value());
  if (s.net_backend == pim::NetBackendKind::Cycle) {
    cell.metrics.emplace_back("net_overlap",
                              costs.network.time.value() > 0.0
                                  ? net.serial_sum.value() /
                                        costs.network.time.value()
                                  : 1.0);
    cell.metrics.emplace_back("net_stall_s", net.stall_time.value());
    cell.metrics.emplace_back("net_max_utilization", net.max_utilization);
    cell.metrics.emplace_back("net_peak_queue",
                              static_cast<double>(net.peak_queue));
  }

  const auto& residency = sim->residency();
  cell.metrics.emplace_back("window_slices",
                            static_cast<double>(residency.window()));
  cell.metrics.emplace_back("num_slices",
                            static_cast<double>(residency.num_slices()));
  cell.metrics.emplace_back("slice_loads",
                            static_cast<double>(residency.slice_loads()));
  cell.metrics.emplace_back("slice_stores",
                            static_cast<double>(residency.slice_stores()));
  cell.metrics.emplace_back("bytes_staged",
                            static_cast<double>(residency.bytes_staged()));
  return cell;
}

std::vector<CellResult> run_paper_cells(const Scenario& s,
                                        FigureData* figures) {
  const auto grid = core::System::compare_all(s.problem, s.steps);
  std::vector<CellResult> cells;
  cells.reserve(grid.size());
  for (const auto& row : grid) {
    CellResult cell;
    cell.id = s.id() + "/" + row.platform;
    cell.kind = CellKind::Paper;
    cell.labels.emplace_back("platform", row.platform);
    cell.labels.emplace_back("class", row.is_pim ? "pim" : "gpu");
    cell.metrics.emplace_back("step_time_s", row.step_time.value());
    cell.metrics.emplace_back("total_time_s", row.total_time.value());
    cell.metrics.emplace_back("total_energy_j", row.total_energy.value());
    cell.metrics.emplace_back("speedup", row.speedup);
    cell.metrics.emplace_back("energy_saving", row.energy_saving);
    cell.metrics.emplace_back("normalized_time", row.normalized_time);
    cell.metrics.emplace_back("normalized_energy", row.normalized_energy);
    if (row.is_pim) {
      cell.metrics.emplace_back("step_time_peak_method_s",
                                row.step_time_peak_method.value());
    }
    cells.push_back(std::move(cell));
  }
  if (figures != nullptr) {
    figures->problems.push_back(s.problem);
    figures->grids.push_back(grid);
  }
  return cells;
}

}  // namespace

std::vector<CellResult> run_scenario(const Scenario& scenario,
                                     const RunOptions& options,
                                     FigureData* figures) {
  if (options.progress) {
    options.progress(scenario);
  }
  if (scenario.kind == CellKind::Paper) {
    return run_paper_cells(scenario, figures);
  }
  return {run_sim_cell(scenario, options)};
}

MatrixResult run_matrix(MatrixKind kind,
                        std::span<const Scenario> scenarios,
                        const RunOptions& options) {
  MatrixResult result;
  result.matrix = kind;
  for (const auto& scenario : scenarios) {
    auto cells = run_scenario(scenario, options, &result.figures);
    for (auto& cell : cells) {
      result.cells.push_back(std::move(cell));
    }
  }
  // The averaged claims (capacity ordering, headline speedups) are
  // statements about the paper's full six-benchmark sweep; a subset run
  // (the reduced matrix) would evaluate different averages, so claims
  // are only emitted when every paper benchmark is present.
  bool complete = !result.figures.grids.empty();
  for (const auto& paper : mapping::paper_benchmarks()) {
    bool found = false;
    for (const auto& problem : result.figures.problems) {
      found = found || problem.name() == paper.name();
    }
    complete = complete && found;
  }
  if (complete) {
    for (auto& claim : fig11_claims(result.figures)) {
      result.claims.push_back(std::move(claim));
    }
    for (auto& claim : fig12_claims(result.figures)) {
      result.claims.push_back(std::move(claim));
    }
    // Fig. 14 rides the complete sweep too, computed under the *cycle*
    // kind (which adds link statistics): the H-tree-over-bus headline
    // is derived from the contention-aware list schedule instead of
    // being an input to the analytic formula.
    result.fig14 = compute_fig14_data(pim::NetBackendKind::Cycle);
    for (auto& claim : fig14_claims(result.fig14)) {
      result.claims.push_back(std::move(claim));
    }
  }
  return result;
}

}  // namespace wavepim::eval
