// wavepim — command-line front end to the Wave-PIM library.
//
// Subcommands:
//   compare  <physics> <level> [steps]        Fig. 11/12-style grid
//   csv      <physics> <level> [steps]        same grid as CSV
//   estimate <physics> <level> <chip>         per-step PIM breakdown
//   schedule <physics> <level> <chip>         batched flux schedule (Fig. 7)
//   configs                                    Table 5 matrix
//   validate                                   bit-true PIM-vs-CPU check
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/parse.h"
#include "common/statistics.h"
#include "common/table.h"
#include "core/report.h"
#include "core/wavepim.h"
#include "dg/solver.h"
#include "dg/sources.h"
#include "frontend.h"
#include "mapping/batch_schedule.h"
#include "mapping/simulation.h"
#include "mesh/structured_mesh.h"

using namespace wavepim;

namespace {

// The global options. Every chip a subcommand selects takes the fabric
// and --chip-blocks cap; the compare/csv grids project their PIM rows on
// the fabric too, and validate's chips take the fabric only.
frontend::SharedFlags g_flags;

int usage() {
  std::fprintf(
      stderr,
      "usage: wavepim [global options] <command> [args]\n"
      "  compare  <physics> <level> [steps]   platform comparison grid\n"
      "  csv      <physics> <level> [steps]   grid as CSV (normalized time)\n"
      "  estimate <physics> <level> <chip>    PIM per-step breakdown\n"
      "  schedule <physics> <level> <chip>    batched flux schedule\n"
      "  configs                              Table 5 configuration matrix\n"
      "  validate                             bit-true PIM-vs-CPU check\n"
      "physics: acoustic | elastic-central | elastic-riemann\n"
      "chip:    512MB | 2GB | 8GB | 16GB\n"
      "global options (accepted by every command, before the command):\n"
      "--threads N (or --threads=N): worker threads for the CPU solver,\n"
      "             the functional PIM simulator and network pricing\n"
      "             (default: WAVEPIM_NUM_THREADS or the hardware);\n"
      "             results are identical for any count\n"
      "--witness=N: re-execute every Nth phase application of the\n"
      "             functional simulator through the compiled plan on\n"
      "             shadow blocks and compare full-state hashes\n"
      "             (1 = every phase, 0/default = off)\n"
      "--trace=FILE: record a structured trace of the run and write it\n"
      "             as Chrome trace-event JSON to FILE (open it in\n"
      "             Perfetto or chrome://tracing); also prints a\n"
      "             per-span summary table after the command\n"
      "--chip-blocks=N: cap the selected chip at N PIM blocks. Problems\n"
      "             that no longer fit run through the batched residency\n"
      "             window (estimate/schedule report the windowed Fig. 7\n"
      "             schedule); fields stay bit-identical, staging traffic\n"
      "             lands in the hbm cost channel\n"
      "--topology=htree|bus: interconnect fabric of every selected chip\n"
      "             (default: htree, the paper's Table 3 switch tree);\n"
      "             compare/csv project their PIM rows on it too\n");
  return 2;
}

bool parse_kind(const char* s, dg::ProblemKind& kind) {
  if (std::strcmp(s, "acoustic") == 0) {
    kind = dg::ProblemKind::Acoustic;
  } else if (std::strcmp(s, "elastic-central") == 0) {
    kind = dg::ProblemKind::ElasticCentral;
  } else if (std::strcmp(s, "elastic-riemann") == 0) {
    kind = dg::ProblemKind::ElasticRiemann;
  } else {
    return false;
  }
  return true;
}

bool parse_chip(const char* s, pim::ChipConfig& chip) {
  for (const auto& c : pim::standard_chips()) {
    if (c.name == std::string("PIM-") + s) {
      chip = c;
      g_flags.apply(chip);
      return true;
    }
  }
  return false;
}

int cmd_compare(const mapping::Problem& problem, std::uint64_t steps,
                bool as_csv) {
  const auto rows = core::System::compare_all(problem, steps, g_flags.topology);
  if (as_csv) {
    const std::vector<std::vector<core::ComparisonRow>> grids = {rows};
    std::fputs(core::to_csv({problem.name()}, grids, false).c_str(), stdout);
    return 0;
  }
  std::printf("%s over %llu steps (baseline: %s)\n\n", problem.name().c_str(),
              static_cast<unsigned long long>(steps),
              rows[0].platform.c_str());
  TextTable table({"Platform", "Step time", "Total time", "Energy",
                   "Speedup", "Energy saving"});
  for (const auto& row : rows) {
    table.add_row({row.platform, format_time(row.step_time),
                   format_time(row.total_time),
                   format_energy(row.total_energy),
                   TextTable::ratio(row.speedup),
                   TextTable::ratio(row.energy_saving)});
  }
  table.print();
  return 0;
}

int cmd_estimate(const mapping::Problem& problem,
                 const pim::ChipConfig& chip) {
  mapping::Estimator estimator(problem, chip);
  const auto& est = estimator.estimate();
  std::printf("%s on %s: config %s, %u batch(es)\n\n", problem.name().c_str(),
              chip.name.c_str(), est.config.label().c_str(),
              est.config.num_batches);
  TextTable seg({"Stage segment", "Duration"});
  seg.add_row({"volume", format_time(est.segments.volume)});
  seg.add_row({"host preprocess", format_time(est.segments.host_preprocess)});
  seg.add_row({"fetch(-1)", format_time(est.segments.fetch_minus)});
  seg.add_row({"flux(-1)", format_time(est.segments.compute_minus)});
  seg.add_row({"fetch(+1)", format_time(est.segments.fetch_plus)});
  seg.add_row({"flux(+1)", format_time(est.segments.compute_plus)});
  seg.add_row({"integration", format_time(est.segments.integration)});
  seg.print();
  std::printf(
      "\nstage: %s pipelined (%s serial)  |  step: %s  |  HBM: %s/step\n"
      "energy/step: %s (static %s, compute %s, network %s)\n",
      format_time(est.stage_schedule.total).c_str(),
      format_time(est.stage_schedule_serial.total).c_str(),
      format_time(est.step_time).c_str(),
      format_bytes(est.hbm_bytes_per_step).c_str(),
      format_energy(est.step_energy).c_str(),
      format_energy(est.static_energy).c_str(),
      format_energy(est.dynamic_energy).c_str(),
      format_energy(est.network_energy).c_str());
  return 0;
}

int cmd_schedule(const mapping::Problem& problem,
                 const pim::ChipConfig& chip) {
  const auto config = mapping::choose_config(problem, chip);
  const auto schedule = mapping::build_flux_batch_schedule(problem, config);
  std::printf("%s on %s: %u slices, window %u, peak resident %u\n",
              problem.name().c_str(), chip.name.c_str(), schedule.num_slices,
              schedule.resident_slices, schedule.peak_resident());
  std::printf("staging per stage: %u slice loads, %u slice stores%s\n\n",
              schedule.total_loads(), schedule.total_stores(),
              schedule.resident_slices >= schedule.num_slices
                  ? " (fully resident: state never leaves the chip)"
                  : "");
  for (std::size_t i = 0; i < schedule.steps.size(); ++i) {
    std::printf("%3zu. %s\n", i + 1, schedule.steps[i].describe().c_str());
  }
  return 0;
}

int cmd_configs() {
  TextTable table({"Benchmark", "512MB", "2GB", "8GB", "16GB"});
  for (const auto& problem : mapping::paper_benchmarks()) {
    std::vector<std::string> cells = {problem.name()};
    for (const auto& chip : pim::standard_chips()) {
      try {
        cells.push_back(mapping::choose_config(problem, chip).label());
      } catch (const CapacityError&) {
        cells.push_back("-");
      }
    }
    table.add_row(cells);
  }
  table.print();
  return 0;
}

// Steps `cpu` and a PIM simulation of `problem` loaded from it five
// times; the relative L-inf error between the two fields.
template <typename Solver>
double pim_vs_cpu(Solver& cpu, const mapping::Problem& problem,
                  mapping::ExpansionMode mode) {
  pim::ChipConfig chip = pim::chip_512mb();
  g_flags.apply_fabric(chip);
  mapping::PimSimulation pim(problem, mode, chip);
  g_flags.apply(pim);
  pim.load_state(cpu.state());
  const double dt = cpu.stable_dt();
  for (int i = 0; i < 5; ++i) {
    cpu.step(dt);
    pim.step(dt);
  }
  return relative_linf_error(pim.read_state().flat(), cpu.state().flat());
}

int cmd_validate() {
  std::printf("Bit-true PIM-vs-CPU validation (level 1, order 2):\n");
  struct Case {
    dg::ProblemKind kind;
    mapping::ExpansionMode mode;
  };
  const Case cases[] = {
      {dg::ProblemKind::Acoustic, mapping::ExpansionMode::None},
      {dg::ProblemKind::Acoustic, mapping::ExpansionMode::Acoustic4},
      {dg::ProblemKind::ElasticCentral, mapping::ExpansionMode::Elastic3},
      {dg::ProblemKind::ElasticRiemann, mapping::ExpansionMode::Elastic9},
  };
  bool ok = true;
  for (const auto& c : cases) {
    const mapping::Problem problem{c.kind, 1, 3};
    mesh::StructuredMesh mesh(1, 1.0, mesh::Boundary::Periodic);
    double err = 0.0;
    if (dg::is_elastic(c.kind)) {
      dg::MaterialField<dg::ElasticMaterial> mats(mesh.num_elements(),
                                                  {2.0, 1.0, 1.0});
      dg::ElasticSolver cpu(mesh, std::move(mats),
                            {.n1d = 3, .flux = dg::flux_of(c.kind)});
      init_elastic_plane_p_wave(cpu, 1);
      err = pim_vs_cpu(cpu, problem, c.mode);
    } else {
      dg::MaterialField<dg::AcousticMaterial> mats(mesh.num_elements(), {});
      dg::AcousticSolver cpu(mesh, std::move(mats),
                             {.n1d = 3, .flux = dg::flux_of(c.kind)});
      init_acoustic_plane_wave(cpu, mesh::Axis::X, 1);
      err = pim_vs_cpu(cpu, problem, c.mode);
    }
    const bool pass = err < 1e-4;
    ok = ok && pass;
    std::printf("  [%s] %s / %s: rel Linf %.2e\n", pass ? "PASS" : "FAIL",
                dg::to_string(c.kind), mapping::to_string(c.mode), err);
  }
  return ok ? 0 : 1;
}

// <level>: plain digits naming a level StructuredMesh accepts.
bool parse_level(const char* s, int& level) {
  std::uint32_t value = 0;
  if (!parse_u32(s, value) ||
      value > static_cast<std::uint32_t>(mesh::StructuredMesh::kMaxLevel)) {
    std::fprintf(stderr, "error: <level> wants an integer in [0, %d]\n",
                 mesh::StructuredMesh::kMaxLevel);
    return false;
  }
  level = static_cast<int>(value);
  return true;
}

// [steps]: plain digits, at least one step.
bool parse_steps(const char* s, std::uint32_t& steps) {
  if (!parse_u32(s, steps) || steps == 0) {
    std::fprintf(stderr, "error: [steps] wants a positive integer\n");
    return false;
  }
  return true;
}

int run_command(int argc, char** argv) {
  const std::string cmd = argv[1];
  if (cmd == "configs") {
    return cmd_configs();
  }
  if (cmd == "validate") {
    return cmd_validate();
  }
  if (cmd == "compare" || cmd == "csv") {
    if (argc < 4) {
      return usage();
    }
    dg::ProblemKind kind;
    if (!parse_kind(argv[2], kind)) {
      return usage();
    }
    int level = 0;
    std::uint32_t steps = 1024;
    if (!parse_level(argv[3], level) ||
        (argc > 4 && !parse_steps(argv[4], steps))) {
      return 2;
    }
    const mapping::Problem problem{kind, level, 8};
    return cmd_compare(problem, steps, cmd == "csv");
  }
  if (cmd == "estimate" || cmd == "schedule") {
    if (argc < 5) {
      return usage();
    }
    dg::ProblemKind kind;
    pim::ChipConfig chip;
    if (!parse_kind(argv[2], kind) || !parse_chip(argv[4], chip)) {
      return usage();
    }
    int level = 0;
    if (!parse_level(argv[3], level)) {
      return 2;
    }
    const mapping::Problem problem{kind, level, 8};
    return cmd == "estimate" ? cmd_estimate(problem, chip)
                             : cmd_schedule(problem, chip);
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Global options precede the subcommand.
  int arg = 1;
  for (; arg < argc && argv[arg][0] == '-'; ++arg) {
    const auto parsed = frontend::parse_flag(argc, argv, arg,
                                             frontend::kAllFlags, g_flags);
    if (parsed != frontend::Parse::Consumed) {
      return parsed == frontend::Parse::Bad ? 2 : usage();
    }
  }
  argc -= arg - 1;
  argv += arg - 1;
  if (argc < 2) {
    return usage();
  }
  return frontend::run(g_flags, [&] { return run_command(argc, argv); });
}
