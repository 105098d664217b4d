// Microbenchmarks of the PIM architectural simulator (google-benchmark):
// interconnect scheduling, the bit-true functional simulation and the
// service scheduler.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "mapping/element_program.h"
#include "mapping/estimator.h"
#include "mapping/simulation.h"
#include "service/scheduler.h"
#include "pim/interconnect.h"
#include "trace/trace.h"

using namespace wavepim;

namespace {

// The list schedule on a contended flux-like batch, plain and with link
// statistics (the `cycle` rows). The makespan, sums and energy are the
// same; the link rows also fold per-link busy/stall/occupancy statistics
// (per-resource counters and a sort of the start times), so the delta is
// the cost of that bookkeeping.
void BM_NetSchedule(benchmark::State& state) {
  const pim::Interconnect net(pim::chip_2gb(pim::Topology::HTree));
  const bool link_stats = state.range(1) != 0;
  std::vector<pim::Transfer> transfers;
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < n; ++i) {
    transfers.push_back({.src_block = (i * 13) % 16384,
                         .dst_block = (i * 29 + 1) % 16384,
                         .words = 64});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.schedule(transfers, link_stats).makespan);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(link_stats ? "cycle" : "analytic");
}
BENCHMARK(BM_NetSchedule)
    ->ArgNames({"transfers", "cycle"})
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({32768, 0})
    ->Args({32768, 1});

// The two kinds of batch an estimate prices, as `Estimator` describes
// them for Elastic-Riemann_4 on PIM-8GB's H-tree (256 tiles): the flux
// staging between each element's own blocks (kind 0; under 2% of its
// transfers cross a tile) and the face-neighbour fetch of the minus faces
// (kind 1; about half cross a tile). Cross-tile transfers walk both
// tiles' full switch chains, so the fetch costs several times more per
// transfer. Rows report the cross-tile share as `cross_tile`.
void BM_NetScheduleBatch(benchmark::State& state) {
  const bool fetch = state.range(0) != 0;
  const mapping::Problem problem{dg::ProblemKind::ElasticRiemann, 4, 8};
  const pim::ChipConfig chip = pim::chip_8gb(pim::Topology::HTree);
  const pim::Interconnect net(chip);
  const mapping::MappingConfig config =
      mapping::Estimator(problem, chip).config();
  const mapping::ElementSetup setup(
      problem, config.expansion,
      1.0 / static_cast<double>(1ull << problem.refinement_level));
  const pim::ArithModel arith;
  mapping::CostSink sink(mapping::SinkPricing::make(arith, net),
                         setup.num_groups());
  for (const mesh::Face face : mesh::kAllFaces) {
    if (mesh::normal_sign(face) < 0) {
      mapping::emit_flux_face(setup, face, /*boundary=*/false, sink);
    }
  }
  const std::uint32_t bpe = mapping::blocks_per_element(config.expansion);
  const mapping::NetBatch batch =
      fetch ? mapping::NetBatch::fetch(sink.inter(), -1,
                                       1ull << problem.refinement_level,
                                       config.slices_per_batch, bpe, false)
            : mapping::NetBatch::staging(sink.intra(),
                                         config.elements_per_batch, bpe);
  const pim::TransferView view = batch.view();
  std::size_t cross = 0;
  for (std::size_t i = 0; i < view.size(); ++i) {
    const pim::Transfer t = view[i];
    cross += t.src_block / pim::ChipConfig::kBlocksPerTile !=
             t.dst_block / pim::ChipConfig::kBlocksPerTile;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.schedule(view).makespan);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(view.size()));
  state.counters["transfers"] = static_cast<double>(view.size());
  state.counters["cross_tile"] =
      static_cast<double>(cross) / static_cast<double>(view.size());
  state.SetLabel(fetch ? "fetch" : "staging");
}
BENCHMARK(BM_NetScheduleBatch)
    ->ArgNames({"fetch"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The shared release order alone (hop classes, then hash buckets), on
// PIM-8GB's H-tree up to the size of the largest batch a paper cell
// schedules (Elastic-Riemann_4's 196,608 fetches).
void BM_ReleaseOrder(benchmark::State& state) {
  pim::ChipConfig config = pim::chip_8gb(pim::Topology::HTree);
  const pim::Interconnect net(config);
  const std::uint32_t blocks = config.num_blocks();
  std::vector<pim::Transfer> transfers;
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < n; ++i) {
    transfers.push_back({.src_block = (i * 13) % blocks,
                         .dst_block = (i * 29 + 1) % blocks,
                         .words = 64});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pim::release_order(net, transfers).data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReleaseOrder)->Arg(4096)->Arg(32768)->Arg(196608);

// Block-parallel functional execution of an 8^3-element acoustic problem
// (refinement level 3, 512 element-blocks) at 1/2/4/8 workers. The 8-worker
// row is the ISSUE's >= 4x wall-clock target on 8 cores; compare against
// the Arg(1) row. Fields and cost reports are bit-identical across rows
// (see mapping/parallel_determinism_test.cpp).
void BM_FunctionalPimStepThreaded(benchmark::State& state) {
  const mapping::Problem problem{dg::ProblemKind::Acoustic, 3, 3};
  mapping::PimSimulation sim(problem, mapping::ExpansionMode::None,
                             pim::chip_512mb());
  sim.set_num_threads(static_cast<std::size_t>(state.range(0)));
  dg::Field u(512, 4, 27);
  u.fill(0.5f);
  sim.load_state(u);
  for (auto _ : state) {
    sim.step(1.0e-3);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_FunctionalPimStepThreaded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The pool's own price per fan-out: 512 trivial iterations, so the time
// is publishing the loop, waking the workers, claiming grains and
// joining, at 1/2/4/8 workers. A step of the 512-element problem makes
// about 70 such fan-outs, so this times the overhead the threaded step
// rows pay.
void BM_ParallelForFanOut(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint32_t> out(512, 0);
  for (auto _ : state) {
    pool.parallel_for(out.size(), [&](std::size_t i) { out[i] += 1; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_ParallelForFanOut)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// The two execution tiers head-to-head on the threaded 512-element
// case, the gate that word (the tier every program runs) is no slower
// than compiled: range(0) indexes mapping::kAllExecPaths (0 compiled,
// 1 word), range(1) is the worker count. The first step runs outside the timed
// loop so cache/plan construction is amortised the way a real run
// amortises it; fields and cost reports are bit-identical across all
// rows (mapping/exec_conformance_test.cpp).
void BM_FunctionalPimStepExecPath(benchmark::State& state) {
  const mapping::Problem problem{dg::ProblemKind::Acoustic, 3, 3};
  mapping::PimSimulation sim(problem, mapping::ExpansionMode::None,
                             pim::chip_512mb());
  const mapping::ExecPath path = mapping::kAllExecPaths[state.range(0)];
  sim.set_exec_path(path);
  sim.set_num_threads(static_cast<std::size_t>(state.range(1)));
  dg::Field u(512, 4, 27);
  u.fill(0.5f);
  sim.load_state(u);
  sim.step(1.0e-3);  // builds the cache / compiled plan untimed
  for (auto _ : state) {
    sim.step(1.0e-3);
  }
  state.SetItemsProcessed(state.iterations() * 512);
  state.SetLabel(std::string("exec=") + mapping::to_string(path));
}
BENCHMARK(BM_FunctionalPimStepExecPath)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 8})
    ->Args({1, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The witness price list on the word tier: range(0) is the spot-check
// interval (0 = off). Every checked phase snapshots its elements'
// blocks, re-executes them bit-serially through the compiled plan on
// per-thread shadow blocks, and compares full-block FNV hashes — so
// witness=1 (every phase) bounds the cost of full conformance mode,
// and witness=16 is the steady spot-check cadence. The witness=0 row
// must match BM_FunctionalPimStepExecPath/1/8, the word tier at 8
// workers (zero overhead off).
void BM_FunctionalPimStepWitness(benchmark::State& state) {
  const mapping::Problem problem{dg::ProblemKind::Acoustic, 3, 3};
  mapping::PimSimulation sim(problem, mapping::ExpansionMode::None,
                             pim::chip_512mb());
  sim.set_exec_path(mapping::ExecPath::Word);
  sim.set_num_threads(8);
  sim.set_witness_interval(static_cast<std::uint32_t>(state.range(0)));
  dg::Field u(512, 4, 27);
  u.fill(0.5f);
  sim.load_state(u);
  sim.step(1.0e-3);  // builds the compiled + word plans untimed
  for (auto _ : state) {
    sim.step(1.0e-3);
  }
  state.SetItemsProcessed(state.iterations() * 512);
  state.SetLabel(state.range(0) == 0
                     ? "witness=off"
                     : "witness=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_FunctionalPimStepWitness)
    ->Arg(0)
    ->Arg(16)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Batched residency on the default tier: the 512-element problem needs
// 512 blocks; range(0) caps the chip (0 = uncapped/resident). 128
// blocks leave a 1-slice window + staging slot (the worst case: every
// slice reloads each stage), 256 a 3-slice window. Fields and compute
// channels are bit-identical across rows (BatchConformance); the delta
// is the functional staging work the residency window adds.
void BM_FunctionalPimStepBatched(benchmark::State& state) {
  const mapping::Problem problem{dg::ProblemKind::Acoustic, 3, 3};
  pim::ChipConfig chip = pim::chip_512mb();
  chip.block_limit = static_cast<std::uint32_t>(state.range(0));
  mapping::PimSimulation sim(problem, mapping::ExpansionMode::None, chip);
  sim.set_num_threads(8);
  dg::Field u(512, 4, 27);
  u.fill(0.5f);
  sim.load_state(u);
  sim.step(1.0e-3);  // builds the plans untimed
  for (auto _ : state) {
    sim.step(1.0e-3);
  }
  state.SetItemsProcessed(state.iterations() * 512);
  state.SetLabel(state.range(0) == 0
                     ? "resident"
                     : "window=" +
                           std::to_string(sim.residency().window()) +
                           " slices");
}
BENCHMARK(BM_FunctionalPimStepBatched)
    ->Arg(0)
    ->Arg(256)
    ->Arg(128)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The trace-overhead contract: the default-tier step loop with tracing
// compiled in but disabled (Arg(0)) must stay within 2% of the
// BM_FunctionalPimStepExecPath/1/1 row, the word tier at 1 worker —
// every span site collapses to a single relaxed atomic load. Arg(1)
// runs the same loop with tracing enabled (events recorded into the
// per-thread rings), the price of a live --trace run.
void BM_FunctionalPimStepTrace(benchmark::State& state) {
  const mapping::Problem problem{dg::ProblemKind::Acoustic, 3, 3};
  mapping::PimSimulation sim(problem, mapping::ExpansionMode::None,
                             pim::chip_512mb());
  sim.set_num_threads(1);
  dg::Field u(512, 4, 27);
  u.fill(0.5f);
  sim.load_state(u);
  sim.step(1.0e-3);  // builds the plans untimed
  const bool enabled = state.range(0) != 0;
  trace::set_enabled(enabled);
  for (auto _ : state) {
    sim.step(1.0e-3);
    if (enabled) {
      // Keep the rings from saturating into drop-counting, which would
      // make later iterations cheaper than earlier ones.
      state.PauseTiming();
      trace::Collector::instance().reset();
      state.ResumeTiming();
    }
  }
  trace::set_enabled(false);
  trace::Collector::instance().reset();
  state.SetItemsProcessed(state.iterations() * 512);
  state.SetLabel(enabled ? "trace=on" : "trace=off");
}
BENCHMARK(BM_FunctionalPimStepTrace)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// A single disabled span site in isolation: the per-site cost tracing
// adds to an instrumented function when no trace is being recorded.
void BM_DisabledSpanSite(benchmark::State& state) {
  trace::set_enabled(false);
  for (auto _ : state) {
    trace::Span span("bench.disabled_site");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DisabledSpanSite);

// Scheduler overhead in isolation: a stream of zero-step jobs runs the
// whole service path — admission, policy selection, a first bind that
// builds the job's simulation and loads its state, completion with a
// readback — without any simulation quanta, so items/s is jobs/s
// through the scheduler itself. Arg is the chip count.
void BM_ServiceZeroStepJobs(benchmark::State& state) {
  const auto specs = service::generate_jobs(
      {.num_jobs = 16, .seed = 7, .zero_step_jobs = true});
  service::ServiceOptions svc;
  svc.num_chips = static_cast<std::uint32_t>(state.range(0));
  svc.policy = service::Policy::Edf;
  for (auto _ : state) {
    service::Scheduler scheduler(svc);
    benchmark::DoNotOptimize(scheduler.run(specs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_ServiceZeroStepJobs)->Arg(1)->Arg(4);

// Admission latency: producing the reproducible request stream itself
// (the seeded draws for arrival, physics, boundary, budget and
// deadline, plus the retired tier draw kept for stream identity).
void BM_ServiceRequestGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service::generate_jobs({.num_jobs = 64, .seed = 7}));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ServiceRequestGeneration);

}  // namespace

// BENCHMARK_MAIN with a default JSON report: unless the caller already
// passed --benchmark_out, results land in BENCH_micro_pim.json (name,
// ns/op, items/s) in the working directory — the machine-readable perf
// trajectory CI uploads as an artifact.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) {
      has_out = true;
    }
  }
  static char out_flag[] = "--benchmark_out=BENCH_micro_pim.json";
  static char format_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(format_flag);
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
