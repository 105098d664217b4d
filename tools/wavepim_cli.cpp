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

#include "common/parallel.h"
#include "common/parse.h"
#include "common/statistics.h"
#include "common/table.h"
#include "common/trace_report.h"
#include "core/report.h"
#include "core/wavepim.h"
#include "dg/solver.h"
#include "dg/sources.h"
#include "mapping/batch_schedule.h"
#include "mapping/simulation.h"
#include "mesh/structured_mesh.h"
#include "trace/export.h"
#include "trace/trace.h"

using namespace wavepim;

namespace {

// --chip-blocks cap, applied to every chip a subcommand selects
// (0 = uncapped).
std::uint32_t g_chip_block_limit = 0;

// --topology fabric, applied to every chip a subcommand selects (the
// compare/csv grids project their PIM rows on it too).
pim::Topology g_topology = pim::Topology::HTree;

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
      "--threads N: worker threads for the CPU solver and the functional\n"
      "             PIM simulator (default: WAVEPIM_NUM_THREADS or the\n"
      "             hardware); results are identical for any count\n"
      "--exec=emit|compiled|word: execution tier of the functional\n"
      "             PIM simulator (default: WAVEPIM_EXEC, else word).\n"
      "             emit re-lowers per stage, compiled runs the resolved\n"
      "             execution plan, word runs the vectorized word-level\n"
      "             kernels; fields and cost reports are bit-identical\n"
      "             across all three\n"
      "--witness=N: word tier only: re-execute every Nth phase\n"
      "             application bit-serially on shadow blocks and compare\n"
      "             full-state hashes (1 = every phase, 0/default = off)\n"
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
      "             compare/csv project their PIM rows on it too\n"
      "--net-backend=analytic|cycle: interconnect timing backend\n"
      "             (default: WAVEPIM_NET_BACKEND, else analytic).\n"
      "             Pricing-only: the network cost channel moves, fields\n"
      "             and the compute/hbm ledgers never do; cycle models\n"
      "             per-link FIFO queuing and exports net.link.* trace\n"
      "             counters\n");
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
      chip.block_limit = g_chip_block_limit;
      chip.topology = g_topology;
      return true;
    }
  }
  return false;
}

int cmd_compare(const mapping::Problem& problem, std::uint64_t steps,
                bool as_csv) {
  const auto rows = core::System::compare_all(problem, steps, g_topology);
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
      pim::ChipConfig chip = pim::chip_512mb();
      chip.topology = g_topology;
      mapping::PimSimulation pim(problem, c.mode, chip);
      pim.load_state(cpu.state());
      const double dt = cpu.stable_dt();
      for (int i = 0; i < 5; ++i) {
        cpu.step(dt);
        pim.step(dt);
      }
      err = relative_linf_error(pim.read_state().flat(), cpu.state().flat());
    } else {
      dg::MaterialField<dg::AcousticMaterial> mats(mesh.num_elements(), {});
      dg::AcousticSolver cpu(mesh, std::move(mats),
                             {.n1d = 3, .flux = dg::flux_of(c.kind)});
      init_acoustic_plane_wave(cpu, mesh::Axis::X, 1);
      pim::ChipConfig chip = pim::chip_512mb();
      chip.topology = g_topology;
      mapping::PimSimulation pim(problem, c.mode, chip);
      pim.load_state(cpu.state());
      const double dt = cpu.stable_dt();
      for (int i = 0; i < 5; ++i) {
        cpu.step(dt);
        pim.step(dt);
      }
      err = relative_linf_error(pim.read_state().flat(), cpu.state().flat());
    }
    const bool pass = err < 1e-4;
    ok = ok && pass;
    std::printf("  [%s] %s / %s: rel Linf %.2e\n", pass ? "PASS" : "FAIL",
                dg::to_string(c.kind), mapping::to_string(c.mode), err);
  }
  return ok ? 0 : 1;
}

int run_command(int argc, char** argv);

}  // namespace

int main(int argc, char** argv) {
  // Global options precede the subcommand. --threads pins the global pool
  // (must happen before any library call spins it up).
  std::string trace_path;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    if (std::strcmp(argv[arg], "--threads") == 0 && arg + 1 < argc) {
      const std::size_t n = ThreadPool::parse_thread_count(argv[arg + 1]);
      if (n == 0) {
        std::fprintf(stderr, "error: --threads wants a positive integer\n");
        return 2;
      }
      ThreadPool::set_global_threads(n);
      arg += 2;
    } else if (std::strncmp(argv[arg], "--exec=", 7) == 0) {
      const char* tier = argv[arg] + 7;
      mapping::ExecPath path{};
      if (!mapping::parse_exec_path(tier, path)) {
        std::fprintf(stderr, "error: --exec wants emit, compiled or word\n");
        return 2;
      }
      // Routed through the environment so every simulation the
      // subcommand constructs picks it up as its default tier.
      setenv("WAVEPIM_EXEC", tier, /*overwrite=*/1);
      arg += 1;
    } else if (std::strncmp(argv[arg], "--witness=", 10) == 0) {
      std::uint32_t cadence = 0;
      if (!parse_u32(argv[arg] + 10, cadence)) {
        std::fprintf(stderr, "error: --witness wants a cadence (0 = off)\n");
        return 2;
      }
      // Routed through the environment like --exec; only the word tier
      // reads it.
      setenv("WAVEPIM_WITNESS", argv[arg] + 10, /*overwrite=*/1);
      arg += 1;
    } else if (std::strncmp(argv[arg], "--chip-blocks=", 14) == 0) {
      std::uint32_t n = 0;
      if (!parse_u32(argv[arg] + 14, n) || n == 0) {
        std::fprintf(stderr,
                     "error: --chip-blocks wants a positive block count\n");
        return 2;
      }
      g_chip_block_limit = n;
      arg += 1;
    } else if (std::strncmp(argv[arg], "--topology=", 11) == 0) {
      if (!pim::parse_topology(argv[arg] + 11, g_topology)) {
        std::fprintf(stderr, "error: --topology wants htree or bus\n");
        return 2;
      }
      arg += 1;
    } else if (std::strncmp(argv[arg], "--net-backend=", 14) == 0) {
      // Validated here, routed through the environment like --exec so
      // every chip the subcommand constructs defaults to it.
      pim::NetBackendKind backend{};
      if (!pim::parse_net_backend(argv[arg] + 14, backend)) {
        std::fprintf(stderr, "error: --net-backend wants analytic or cycle\n");
        return 2;
      }
      setenv("WAVEPIM_NET_BACKEND", argv[arg] + 14, /*overwrite=*/1);
      arg += 1;
    } else if (std::strncmp(argv[arg], "--trace=", 8) == 0) {
      trace_path = argv[arg] + 8;
      if (trace_path.empty()) {
        std::fprintf(stderr, "error: --trace wants an output path\n");
        return 2;
      }
      arg += 1;
    } else {
      return usage();
    }
  }
  argc -= arg - 1;
  argv += arg - 1;
  if (argc < 2) {
    return usage();
  }

  if (trace_path.empty()) {
    return run_command(argc, argv);
  }
  trace::set_enabled(true);
  const int rc = run_command(argc, argv);
  trace::set_enabled(false);
  if (!trace::write_chrome_trace(trace_path)) {
    std::fprintf(stderr, "error: could not write trace to %s\n",
                 trace_path.c_str());
    return rc != 0 ? rc : 1;
  }
  std::printf("\n");
  print_trace_summary(trace::summarize());
  std::printf("trace written to %s\n", trace_path.c_str());
  return rc;
}

namespace {

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
  try {
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
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}

}  // namespace
