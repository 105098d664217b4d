#include "eval/matrix.h"

#include "common/error.h"

namespace wavepim::eval {

const char* to_string(CellKind kind) {
  return kind == CellKind::Paper ? "paper" : "sim";
}

const char* to_string(Materials materials) {
  return materials == Materials::Uniform ? "uniform" : "layered";
}

const char* to_string(MatrixKind kind) {
  return kind == MatrixKind::Reduced ? "reduced" : "full";
}

bool parse_matrix(std::string_view name, MatrixKind& out) {
  if (name == "reduced") {
    out = MatrixKind::Reduced;
    return true;
  }
  if (name == "full") {
    out = MatrixKind::Full;
    return true;
  }
  return false;
}

namespace {

/// CLI-style lowercase physics name (matches wavepim's <physics> args).
const char* physics_slug(dg::ProblemKind kind) {
  switch (kind) {
    case dg::ProblemKind::Acoustic:
      return "acoustic";
    case dg::ProblemKind::ElasticCentral:
      return "elastic-central";
    case dg::ProblemKind::ElasticRiemann:
      return "elastic-riemann";
  }
  return "?";
}

}  // namespace

std::string Scenario::id() const {
  if (kind == CellKind::Paper) {
    return "paper/" + problem.name();
  }
  std::string out = "sim/";
  out += physics_slug(problem.kind);
  out += "-l" + std::to_string(problem.refinement_level);
  out += "/";
  out += mapping::to_string(expansion);
  out += boundary == mesh::Boundary::Periodic ? "/periodic" : "/reflective";
  out += "/";
  out += to_string(materials);
  out += block_limit == 0 ? std::string("/resident")
                          : "/win" + std::to_string(block_limit);
  if (net_backend == pim::NetBackendKind::Cycle) {
    out += "/net-cycle";
  }
  return out;
}

namespace {

using dg::ProblemKind;
using mapping::ExpansionMode;
using mesh::Boundary;

Scenario paper(const mapping::Problem& problem) {
  Scenario s;
  s.kind = CellKind::Paper;
  s.problem = problem;
  return s;
}

/// Sim scenario on the small validation meshes (n1d = 3, the
/// conformance suites' element size). All sim cells run `sim_steps`
/// RK-stepped time steps from the shared seeded state.
Scenario sim(ProblemKind kind, int level, ExpansionMode expansion,
             Boundary boundary, Materials materials,
             std::uint32_t block_limit,
             pim::NetBackendKind net = pim::NetBackendKind::Analytic) {
  Scenario s;
  s.kind = CellKind::Sim;
  s.problem = mapping::Problem{kind, level, 3};
  s.expansion = expansion;
  s.boundary = boundary;
  s.materials = materials;
  s.block_limit = block_limit;
  s.net_backend = net;
  return s;
}

}  // namespace

std::vector<Scenario> build_matrix(MatrixKind kind) {
  std::vector<Scenario> out;
  const auto benchmarks = mapping::paper_benchmarks();

  if (kind == MatrixKind::Reduced) {
    // Two paper benchmarks bracket the physics/flux axes (cheapest and
    // most compute-intense); the sim slice runs resident and through
    // one over-capacity window plus one cell on each beyond-paper axis.
    out.push_back(paper(benchmarks[0]));  // Acoustic_4
    out.push_back(paper(benchmarks[2]));  // Elastic-Riemann_4
    for (const std::uint32_t limit : {0u, 32u}) {
      out.push_back(sim(ProblemKind::Acoustic, 2, ExpansionMode::None,
                        Boundary::Periodic, Materials::Uniform, limit));
    }
    out.push_back(sim(ProblemKind::ElasticCentral, 2, ExpansionMode::Elastic3,
                      Boundary::Periodic, Materials::Uniform, 0));
    out.push_back(sim(ProblemKind::ElasticRiemann, 1, ExpansionMode::Elastic9,
                      Boundary::Periodic, Materials::Uniform, 0));
    out.push_back(sim(ProblemKind::Acoustic, 2, ExpansionMode::None,
                      Boundary::Reflective, Materials::Uniform, 0));
    out.push_back(sim(ProblemKind::Acoustic, 2, ExpansionMode::None,
                      Boundary::Periodic, Materials::Layered, 0));
    // Cycle net-backend axis (resident and windowed): pricing-only, so
    // these cells must reproduce the analytic cells' field hashes while
    // adding the queuing metrics the analytic scheduler cannot see.
    for (const std::uint32_t limit : {0u, 32u}) {
      out.push_back(sim(ProblemKind::Acoustic, 2, ExpansionMode::None,
                        Boundary::Periodic, Materials::Uniform, limit,
                        pim::NetBackendKind::Cycle));
    }
    return out;
  }

  // Full matrix: all six paper benchmarks (enables the Fig. 11/12 shape
  // claims) and the complete sim axis coverage.
  for (const auto& problem : benchmarks) {
    out.push_back(paper(problem));
  }

  // Physics x residency (uniform, periodic). Window sizes are one
  // resident slice + the Fig. 7 staging slot at each problem's
  // blocks-per-slice.
  for (const std::uint32_t limit : {0u, 32u}) {
    out.push_back(sim(ProblemKind::Acoustic, 2, ExpansionMode::None,
                      Boundary::Periodic, Materials::Uniform, limit));
  }
  out.push_back(sim(ProblemKind::ElasticCentral, 2, ExpansionMode::Elastic3,
                    Boundary::Periodic, Materials::Uniform, 0));
  out.push_back(sim(ProblemKind::ElasticCentral, 2, ExpansionMode::Elastic3,
                    Boundary::Periodic, Materials::Uniform, 96));
  out.push_back(sim(ProblemKind::ElasticRiemann, 1, ExpansionMode::Elastic9,
                    Boundary::Periodic, Materials::Uniform, 0));
  out.push_back(sim(ProblemKind::ElasticRiemann, 2, ExpansionMode::Elastic9,
                    Boundary::Periodic, Materials::Uniform, 288));

  // Expansion axis beyond the Table 5 defaults: the acoustic 4-block
  // split, resident and through a window.
  out.push_back(sim(ProblemKind::Acoustic, 2, ExpansionMode::Acoustic4,
                    Boundary::Periodic, Materials::Uniform, 0));
  out.push_back(sim(ProblemKind::Acoustic, 2, ExpansionMode::Acoustic4,
                    Boundary::Periodic, Materials::Uniform, 128));

  // Beyond-paper boundary axis (reflective walls; the PIM mapping
  // supports periodic/reflective — absorbing layers exist only in the
  // CPU DG solver and are documented as a deviation).
  out.push_back(sim(ProblemKind::Acoustic, 2, ExpansionMode::None,
                    Boundary::Reflective, Materials::Uniform, 0));
  out.push_back(sim(ProblemKind::Acoustic, 2, ExpansionMode::None,
                    Boundary::Reflective, Materials::Uniform, 32));
  out.push_back(sim(ProblemKind::ElasticCentral, 1, ExpansionMode::Elastic3,
                    Boundary::Reflective, Materials::Uniform, 0));

  // Beyond-paper heterogeneous-materials axis (two-layer media), alone
  // and combined with a window and with reflective walls.
  out.push_back(sim(ProblemKind::Acoustic, 2, ExpansionMode::None,
                    Boundary::Periodic, Materials::Layered, 0));
  out.push_back(sim(ProblemKind::Acoustic, 2, ExpansionMode::None,
                    Boundary::Periodic, Materials::Layered, 32));
  out.push_back(sim(ProblemKind::Acoustic, 2, ExpansionMode::None,
                    Boundary::Reflective, Materials::Layered, 0));
  out.push_back(sim(ProblemKind::ElasticCentral, 1, ExpansionMode::Elastic3,
                    Boundary::Periodic, Materials::Layered, 0));

  // Cycle net-backend axis: resident and the reduced matrix's windowed
  // cell (the backend must leave the field hash untouched), and one
  // elastic point with its heavier flux traffic.
  for (const std::uint32_t limit : {0u, 32u}) {
    out.push_back(sim(ProblemKind::Acoustic, 2, ExpansionMode::None,
                      Boundary::Periodic, Materials::Uniform, limit,
                      pim::NetBackendKind::Cycle));
  }
  out.push_back(sim(ProblemKind::ElasticCentral, 2, ExpansionMode::Elastic3,
                    Boundary::Periodic, Materials::Uniform, 0,
                    pim::NetBackendKind::Cycle));
  return out;
}

}  // namespace wavepim::eval
