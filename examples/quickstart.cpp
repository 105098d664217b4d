// Quickstart: simulate a small acoustic wave problem on the CPU reference
// solver, validate the bit-true Wave-PIM execution against it, and project
// the run onto a 2 GB Wave-PIM chip and the GPU baselines.
//
// Usage: quickstart [--threads N | --threads=N] [--witness=N]
//                   [--trace=FILE] [--chip-blocks=N]
//                   [--topology=htree|bus] [--net-backend=analytic|cycle]
// --threads sizes the one pool that runs both the simulator and the
// projection's network pricing. The worker count changes wall-clock time
// only; fields and cost reports are bit-identical for any count.
// --witness=N re-executes every Nth phase through the compiled plan and
// compares block hashes (a mismatch exits 1). --trace records
// the run and writes Chrome trace-event JSON (open in Perfetto or
// chrome://tracing). --chip-blocks caps the chip's PIM blocks so the
// validation run overflows on-chip capacity and exercises the batched
// residency path (fields stay bit-identical to the resident run; the
// staging traffic shows up in the hbm cost channel). --topology selects
// the validation chip's fabric and --net-backend its timing model; both
// are pricing-only (the network cost channel moves, fields never do),
// and the cycle backend additionally reports link queuing statistics.
// The flags go through the tools' shared front end (tools/frontend.h):
// a bad value exits 2, a library error (a --chip-blocks cap too small to
// batch on, say) prints "error: ..." and exits 1.
#include <cstdint>
#include <cstdio>

#include "common/statistics.h"
#include "core/wavepim.h"
#include "dg/solver.h"
#include "dg/sources.h"
#include "frontend.h"

using namespace wavepim;

namespace {

int quickstart(const frontend::SharedFlags& flags) {
  std::printf("Wave-PIM quickstart\n===================\n\n");

  // 1. A small periodic acoustic problem (order-2 basis). A capped chip
  //    needs at least two Y-slices resident, so the level-1 mesh (whose
  //    two 4-element slices fit any usable cap) grows to level 2 — 64
  //    elements in four 16-element slices — when --chip-blocks is given.
  const mapping::Problem small{dg::ProblemKind::Acoustic,
                               flags.chip_blocks != 0 ? 2 : 1, 3};
  mesh::StructuredMesh mesh(small.refinement_level, 1.0,
                            mesh::Boundary::Periodic);
  dg::MaterialField<dg::AcousticMaterial> materials(mesh.num_elements(),
                                                    {.kappa = 1.0, .rho = 1.0});
  dg::AcousticSolver cpu(mesh, std::move(materials),
                         {.n1d = small.n1d, .flux = dg::FluxType::Upwind});
  dg::init_acoustic_plane_wave(cpu, mesh::Axis::X, 1);

  // 2. Run it bit-true through the PIM instruction streams. The flags
  //    shape this validation chip only; the part-3 projection grid keeps
  //    the library defaults so its numbers stay comparable across
  //    quickstart invocations.
  pim::ChipConfig chip = pim::chip_512mb();
  flags.apply(chip);
  mapping::PimSimulation pim(small, mapping::ExpansionMode::None, chip);
  flags.apply(pim);
  if (flags.chip_blocks != 0) {
    const auto& residency = pim.residency();
    std::printf("chip capped at %u blocks: %u Y-slices, window of %u "
                "slice(s) + 1 staging slot (%s)\n\n",
                flags.chip_blocks, residency.num_slices(), residency.window(),
                residency.is_resident() ? "fully resident" : "batched");
  }
  pim.load_state(cpu.state());
  const double dt = cpu.stable_dt();
  for (int i = 0; i < 10; ++i) {
    cpu.step(dt);
    pim.step(dt);
  }
  const auto got = pim.read_state();
  const double err = relative_linf_error(got.flat(), cpu.state().flat());
  std::printf("CPU vs PIM functional simulation after 10 steps: "
              "rel. L-inf error = %.2e\n", err);
  bool witness_failed = false;
  if (pim.witness_interval() != 0) {
    const auto& ws = pim.witness_stats();
    std::printf("witness (cadence %u): %llu phase checks, %llu block "
                "comparisons, %llu mismatches\n",
                pim.witness_interval(),
                static_cast<unsigned long long>(ws.checks),
                static_cast<unsigned long long>(ws.blocks_checked),
                static_cast<unsigned long long>(ws.mismatches));
    for (const auto& m : pim.witness_mismatches()) {
      std::fprintf(stderr,
                   "witness mismatch: stage %d schedule step %u vblock %u\n",
                   m.stage, m.schedule_step, m.vblock);
    }
    witness_failed = ws.mismatches != 0;
  }
  if (pim.word_plan() != nullptr) {
    // Fusion summary: how far the word plan's peephole passes
    // compressed the kernel streams (the same numbers ride the
    // word.fuse.* trace counters in the --trace summary).
    const auto& fs = pim.word_plan()->fuse_stats();
    std::printf("word fusion: %llu ops -> %llu "
                "(%llu pairs, %llu chains/%llu links/%llu paired, "
                "%llu gathers folded, %llu dead stores elided)\n",
                static_cast<unsigned long long>(fs.ops_before),
                static_cast<unsigned long long>(fs.ops_after),
                static_cast<unsigned long long>(fs.scale_add + fs.mul_add +
                                                fs.axpy_pair),
                static_cast<unsigned long long>(fs.chains),
                static_cast<unsigned long long>(fs.chain_links),
                static_cast<unsigned long long>(fs.chain_pairs),
                static_cast<unsigned long long>(fs.gather_fused),
                static_cast<unsigned long long>(fs.dead_stores));
  }
  std::printf("PIM modelled cost so far: %s, %s\n",
              format_time(pim.costs().total().time).c_str(),
              format_energy(pim.costs().total().energy).c_str());
  // Interconnect summary: the serialized lower bound vs the scheduled
  // makespan — their ratio is the path parallelism the fabric extracted.
  const auto& net = pim.net_stats();
  const double net_time_s = pim.costs().network.time.value();
  const double overlap =
      net_time_s > 0.0 ? net.serial_sum.value() / net_time_s : 1.0;
  std::printf("network (%s fabric, %s backend): %s serialized, %s on "
              "fabric, overlap %.2fx over %llu transfers\n",
              pim::to_string(chip.topology),
              pim::to_string(chip.net_backend),
              format_time(net.serial_sum).c_str(),
              format_time(seconds(net_time_s)).c_str(), overlap,
              static_cast<unsigned long long>(net.transfers));
  if (net.link_schedules > 0) {
    std::printf("link queuing: stall %s, max utilization %.1f%%, "
                "peak queue %llu\n",
                format_time(net.stall_time).c_str(),
                100.0 * net.max_utilization,
                static_cast<unsigned long long>(net.peak_queue));
  }
  if (flags.chip_blocks != 0) {
    std::printf("HBM staging (hbm channel): %s, %s over %llu slice moves\n",
                format_time(pim.costs().hbm.time).c_str(),
                format_energy(pim.costs().hbm.energy).c_str(),
                static_cast<unsigned long long>(
                    pim.residency().slice_loads() +
                    pim.residency().slice_stores()));
  }
  std::printf("\n");

  // 3. Project the paper's Acoustic_4 benchmark (512-node elements) onto
  //    the platforms.
  const mapping::Problem big{dg::ProblemKind::Acoustic, 4, 8};
  const std::uint64_t steps = 1024;
  std::printf("Projecting %s over %llu time steps:\n", big.name().c_str(),
              static_cast<unsigned long long>(steps));
  for (const auto& row : core::System::compare_all(big, steps)) {
    std::printf("  %-22s time %-10s energy %-9s speedup %6.2fx\n",
                row.platform.c_str(), format_time(row.total_time).c_str(),
                format_energy(row.total_energy).c_str(), row.speedup);
  }

  return (err < 1e-4 && !witness_failed) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  frontend::SharedFlags flags;
  for (int i = 1; i < argc; ++i) {
    const auto parsed =
        frontend::parse_flag(argc, argv, i, frontend::kAllFlags, flags);
    if (parsed == frontend::Parse::Bad) {
      return 2;
    }
    if (parsed == frontend::Parse::NotShared) {
      std::fprintf(stderr,
                   "error: unknown option %s\n"
                   "usage: quickstart [--threads N | --threads=N] "
                   "[--witness=N] [--trace=FILE] [--chip-blocks=N] "
                   "[--topology=htree|bus] "
                   "[--net-backend=analytic|cycle]\n",
                   argv[i]);
      return 2;
    }
  }
  return frontend::run(flags, [&] { return quickstart(flags); });
}
