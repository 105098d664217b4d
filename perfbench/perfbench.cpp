// perfbench — one repetition of one repository-benchmark workload.
//
// Usage: perfbench <project|fig14|simulate|serve> [--seed N] [--trace]
//                  [--setup-only] [--pool] [--verify]
//
// perfbench/run.py launches one process per repetition, so every
// repetition starts cold and a crash costs only that repetition. The
// last stdout line is one JSON object:
//   ready_ns     CLOCK_MONOTONIC instant the timed phase began (the
//                launcher subtracts its spawn instant: set-up time)
//   wall_s       host time of the timed phase
//   step_s       per-step host times (simulate)
//   peak_rss_mb  peak resident memory at the end of the timed phase
//   ok, detail   verdict of the output check, run after the timed phase
//   facts        workload outputs the launcher compares across
//                repetitions (field hash, ledgers, makespan, ...)
//   host         nproc, pool sizes, build type, compiler, AVX2
//   trace        with --trace: per-span count, inclusive and self time
//                from trace::Collector::snapshot(), plus unmatched spans
//                and dropped events
//
// --setup-only stops at the start of the timed phase. --verify runs the
// expensive simulate reference checks (CPU solver, compiled tier).
// --pool appends an untraced pass of kSimPoolSteps simulate steps on a
// min(4, nproc)-worker pool (pool.scaling).
//
// Only project and simulate are driven workloads in BENCHMARK.json, so
// their traced runs also carry the layers of the other two: a traced
// project repetition times the Fig. 14 cases under both network
// backends (facts fig14_s, analytic_s), and a traced simulate repetition
// appends a traced serve pass, reported under "serve" with its own span
// table.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "core/wavepim.h"
#include "dg/solver.h"
#include "eval/figures.h"
#include "eval/matrix.h"
#include "eval/report.h"
#include "eval/runner.h"
#include "mapping/simulation.h"
#include "mapping/word_avx2.h"
#include "service/job.h"
#include "service/scheduler.h"
#include "trace/clock.h"
#include "trace/trace.h"

extern char** environ;

using namespace wavepim;

namespace {

using Members = std::vector<std::pair<std::string, json::Value>>;

constexpr double kSimDt = 1.0e-3;
constexpr int kSimSteps = 200;
constexpr int kSimPoolSteps = 30;
constexpr std::uint32_t kServeJobs = 256;
constexpr std::size_t kServeSamples = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool setup_only = false;
  bool verify = false;
  bool pool = false;
};

/// What one repetition reports (see the file comment).
struct Rep {
  std::uint64_t ready_ns = 0;
  double wall_s = 0.0;
  std::vector<double> step_s;
  double peak_rss_mb = 0.0;
  bool ok = true;
  std::string detail;
  Members facts;
  std::vector<trace::Event> events;  ///< snapshot at the end of the timed phase
  std::uint64_t dropped = 0;         ///< events the rings lost by then
  Members extra;                     ///< further members of the output line
};

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

/// Worker count of every multi-threaded pool the benchmark creates.
std::size_t pool_workers() { return std::min<std::size_t>(4, nproc()); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

json::Value num(double v) { return json::Value::make_number(v); }
json::Value str(std::string s) { return json::Value::make_string(std::move(s)); }

json::Value num_array(const std::vector<double>& values) {
  std::vector<json::Value> items;
  items.reserve(values.size());
  for (const double v : values) {
    items.push_back(num(v));
  }
  return json::Value::make_array(std::move(items));
}

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// FNV-1a of a string as 16 hex digits.
std::string digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void fail(Rep& rep, const std::string& why) {
  rep.ok = false;
  rep.detail += (rep.detail.empty() ? "" : "; ") + why;
}

/// Closes the timed phase: peak memory so far and, when tracing, the
/// event snapshot (later untimed work stays out of the per-layer table).
void end_timed(Rep& rep) {
  rep.peak_rss_mb = peak_rss_mb();
  if (trace::enabled()) {
    trace::set_enabled(false);
    rep.events = trace::Collector::instance().snapshot();
    rep.dropped = trace::Collector::instance().dropped();
  }
}

pim::ChipConfig analytic(pim::ChipConfig chip) {
  chip.net_backend = pim::NetBackendKind::Analytic;
  return chip;
}

/// Every cost channel and the network counters, printed exactly.
std::string ledger(const mapping::PimSimulation::Costs& c,
                   const mapping::PimSimulation::NetStats& n) {
  std::string out;
  for (const pim::OpCost* k :
       {&c.volume, &c.flux, &c.integration, &c.network, &c.hbm}) {
    out += exact(k->time.value()) + "/" + exact(k->energy.value()) + " ";
  }
  out += std::to_string(n.schedules) + " " + std::to_string(n.transfers) +
         " " + std::to_string(n.words) + " " + exact(n.serial_sum.value());
  return out;
}

void check_fig14(const eval::Fig14Data& data, Rep& rep);
void run_serve(const Args& args, Rep& rep);
Members trace_summary(const Rep& rep);

// --- project -------------------------------------------------------------

/// The reduced matrix's paper scenarios (Acoustic_4, Elastic-Riemann_4:
/// compare_all over 1024 steps, H-tree, analytic backend), run through
/// eval::run_scenario as paper_eval runs them, and checked cell by cell
/// against the committed EXPERIMENTS_matrix.json at paper_eval's default
/// tolerance. Traced runs then time the Fig. 14 cases under the cycle and
/// the analytic backend, untraced (eval.fig14_s,
/// pim.net.cycle_over_analytic).
void run_project(const Args& args, Rep& rep) {
  std::vector<eval::Scenario> scenarios;
  for (const auto& scenario : eval::build_matrix(eval::MatrixKind::Reduced)) {
    if (scenario.kind == eval::CellKind::Paper) {
      scenarios.push_back(scenario);
    }
  }
  rep.ready_ns = monotonic_ns();
  if (args.setup_only) {
    return;
  }
  eval::MatrixResult result;
  const trace::Stopwatch watch;
  for (const auto& scenario : scenarios) {
    trace::Span span("core.compare_all");
    for (auto& cell : eval::run_scenario(scenario, {}, nullptr)) {
      result.cells.push_back(std::move(cell));
    }
  }
  rep.wall_s = watch.elapsed_seconds();
  end_timed(rep);
  rep.facts.emplace_back(
      "estimate_pairs", num(static_cast<double>(
                            scenarios.size() * pim::standard_chips().size())));

  std::ifstream in("EXPERIMENTS_matrix.json", std::ios::binary);
  if (!in) {
    fail(rep, "cannot open EXPERIMENTS_matrix.json");
    return;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const eval::DiffResult diff = eval::diff_reports(
      json::parse(text.str()), eval::report_to_json(result));
  if (result.cells.empty() || !diff.ok() ||
      diff.compared != static_cast<int>(result.cells.size())) {
    fail(rep, "paper cells differ from EXPERIMENTS_matrix.json:\n" +
                  diff.table);
  }

  if (args.trace) {
    const trace::Stopwatch cycle_watch;
    const eval::Fig14Data data =
        eval::compute_fig14_data(pim::NetBackendKind::Cycle);
    rep.facts.emplace_back("fig14_s", num(cycle_watch.elapsed_seconds()));
    const trace::Stopwatch analytic_watch;
    (void)eval::compute_fig14_data(pim::NetBackendKind::Analytic);
    rep.facts.emplace_back("analytic_s", num(analytic_watch.elapsed_seconds()));
    check_fig14(data, rep);
  }
}

// --- fig14 ---------------------------------------------------------------

/// All eight Fig. 14 rows are present and every Fig. 14 shape claim passes.
void check_fig14(const eval::Fig14Data& data, Rep& rep) {
  if (data.rows.size() != 8) {
    fail(rep, "expected 8 Fig. 14 rows, got " +
                  std::to_string(data.rows.size()));
  }
  for (const auto& claim : eval::fig14_claims(data)) {
    if (!claim.pass) {
      fail(rep, "claim failed: " + claim.claim);
    }
  }
}

/// The paper's Fig. 14 cases under the cycle backend; every Fig. 14
/// shape claim must pass. Traced runs also time the analytic backend on
/// the same cases (pim.net.cycle_over_analytic).
void run_fig14(const Args& args, Rep& rep) {
  rep.ready_ns = monotonic_ns();
  if (args.setup_only) {
    return;
  }
  const trace::Stopwatch watch;
  eval::Fig14Data data;
  {
    trace::Span span("eval.fig14");
    data = eval::compute_fig14_data(pim::NetBackendKind::Cycle);
  }
  rep.wall_s = watch.elapsed_seconds();
  end_timed(rep);
  rep.facts.emplace_back("estimate_pairs",
                         num(static_cast<double>(data.rows.size())));
  rep.facts.emplace_back("fig14_s", num(rep.wall_s));
  if (args.trace) {
    trace::set_enabled(true);
    const trace::Stopwatch analytic_watch;
    (void)eval::compute_fig14_data(pim::NetBackendKind::Analytic);
    rep.facts.emplace_back("analytic_s", num(analytic_watch.elapsed_seconds()));
    trace::set_enabled(false);
  }
  check_fig14(data, rep);
}

// --- simulate ------------------------------------------------------------

const mapping::Problem kSimProblem{dg::ProblemKind::Acoustic, 3, 3};

std::unique_ptr<mapping::PimSimulation> make_sim(mapping::ExecPath path) {
  auto sim = std::make_unique<mapping::PimSimulation>(
      kSimProblem, mapping::ExpansionMode::None, analytic(pim::chip_512mb()));
  sim->set_exec_path(path);
  sim->set_num_threads(1);
  sim->set_witness_interval(0);
  return sim;
}

dg::Field seeded_field(const mapping::PimSimulation& sim, std::uint64_t seed) {
  dg::Field u(sim.mesh().num_elements(), sim.setup().problem().num_vars(),
              static_cast<std::size_t>(sim.setup().ref().num_nodes()));
  Rng rng(seed);
  for (float& v : u.flat()) {
    v = rng.next_float(-1.0f, 1.0f);
  }
  return u;
}

/// The word tier's field after `steps` steps stays within the
/// quickstart's 1e-4 relative L-inf bound of the CPU solver, and its hash
/// and cost ledgers equal a compiled-tier run's.
void verify_simulate(int steps, const dg::Field& initial, const dg::Field& out,
                     const std::string& ledgers, Rep& rep) {
  const mesh::StructuredMesh mesh(kSimProblem.refinement_level, 1.0,
                                  mesh::Boundary::Periodic);
  dg::MaterialField<dg::AcousticMaterial> materials(
      mesh.num_elements(), {.kappa = 1.0, .rho = 1.0});
  dg::AcousticSolver cpu(
      mesh, std::move(materials),
      {.n1d = kSimProblem.n1d, .flux = dg::FluxType::Upwind});
  if (kSimDt > cpu.stable_dt()) {
    fail(rep, "time step exceeds the CPU solver's stable dt");
  }
  cpu.state() = initial;
  for (int s = 0; s < steps; ++s) {
    cpu.step(kSimDt);
  }
  const double err = relative_linf_error(out.flat(), cpu.state().flat());
  rep.facts.emplace_back("cpu_rel_linf", num(err));
  if (!(err < 1e-4)) {
    fail(rep, "word tier vs CPU solver: rel. L-inf error " + exact(err));
  }

  const auto compiled = make_sim(mapping::ExecPath::Compiled);
  compiled->load_state(initial);
  for (int s = 0; s < steps; ++s) {
    compiled->step(kSimDt);
  }
  if (service::field_hash(compiled->read_state()) != service::field_hash(out)) {
    fail(rep, "word and compiled tiers disagree on the field hash");
  }
  if (ledger(compiled->costs(), compiled->net_stats()) != ledgers) {
    fail(rep, "word and compiled tiers disagree on the cost ledgers");
  }
}

/// Bit-true word-tier run of an acoustic level-3 mesh (512 elements, n1d
/// 3) resident on a 512MB chip, serial. Set-up is construction,
/// load_state and one untimed warm-up step (cache, plan and word-plan
/// builds). Traced runs then empty the trace rings and make a traced
/// serve pass with a span table of its own (the service.* metrics).
void run_simulate(const Args& args, Rep& rep) {
  const auto owned = make_sim(mapping::ExecPath::Word);
  mapping::PimSimulation& sim = *owned;
  const dg::Field initial = seeded_field(sim, args.seed);
  sim.load_state(initial);
  sim.step(kSimDt);
  rep.ready_ns = monotonic_ns();
  if (args.setup_only) {
    return;
  }
  rep.step_s.reserve(kSimSteps);
  const trace::Stopwatch watch;
  for (int s = 0; s < kSimSteps; ++s) {
    const trace::Stopwatch step_watch;
    {
      trace::Span span("mapping.step");
      sim.step(kSimDt);
    }
    rep.step_s.push_back(step_watch.elapsed_seconds());
  }
  rep.wall_s = watch.elapsed_seconds();
  end_timed(rep);
  rep.facts.emplace_back("traced_steps", num(kSimSteps + 1.0));

  const dg::Field out = sim.read_state();
  const std::string ledgers = ledger(sim.costs(), sim.net_stats());
  rep.facts.emplace_back("hash", str(service::field_hash(out)));
  rep.facts.emplace_back("ledger", str(ledgers));
  if (args.verify) {
    verify_simulate(kSimSteps + 1, initial, out, ledgers, rep);
  }

  if (args.pool) {
    // Pooled pass for pool.scaling, continuing the same trajectory.
    sim.set_num_threads(pool_workers());
    std::vector<double> pooled;
    for (int s = 0; s < kSimPoolSteps; ++s) {
      const trace::Stopwatch step_watch;
      sim.step(kSimDt);
      pooled.push_back(step_watch.elapsed_seconds());
    }
    rep.facts.emplace_back("pool_step_s", num_array(pooled));
  }

  if (args.trace) {
    trace::Collector::instance().reset();
    trace::set_enabled(true);
    Rep serve;
    run_serve(args, serve);
    if (!serve.ok) {
      fail(rep, "serve pass: " + serve.detail);
    }
    Members pass = trace_summary(serve);
    pass.emplace_back("wall_s", num(serve.wall_s));
    pass.emplace_back("facts", json::Value::make_object(std::move(serve.facts)));
    rep.extra.emplace_back("serve", json::Value::make_object(std::move(pass)));
  }
}

// --- serve ---------------------------------------------------------------

std::string ledger_of(const service::JobResult& job) {
  return ledger(job.costs, job.net);
}

/// A seeded 256-job stream over 4 pooled chips under EDF, one thread per
/// tenant. Sampled jobs must match their solo runs bit for bit.
void run_serve(const Args& args, Rep& rep) {
  service::GeneratorOptions gen;
  gen.num_jobs = kServeJobs;
  gen.seed = args.seed;
  gen.max_steps = 8;
  service::ServiceOptions options;
  options.num_chips = 4;
  options.policy = service::Policy::Edf;
  options.threads = 1;
  options.chip = analytic(pim::chip_512mb());
  const std::vector<service::JobSpec> specs = service::generate_jobs(gen);
  rep.ready_ns = monotonic_ns();
  if (args.setup_only) {
    return;
  }
  const trace::Stopwatch watch;
  service::Scheduler scheduler(options);
  const service::ServiceReport report = scheduler.run(specs);
  rep.wall_s = watch.elapsed_seconds();
  end_timed(rep);

  std::uint64_t steps_run = 0;
  std::string results;
  for (const auto& job : report.jobs) {
    steps_run += job.steps_run;
    results += job.hash + " " + ledger_of(job) + "\n";
  }
  rep.facts.emplace_back("traced_steps", num(static_cast<double>(steps_run)));
  rep.facts.emplace_back("jobs", num(static_cast<double>(report.jobs.size())));
  rep.facts.emplace_back("cache_hits",
                         num(static_cast<double>(report.cache_hits)));
  rep.facts.emplace_back("makespan", str(exact(report.makespan_s)));
  rep.facts.emplace_back("latency_p99", str(exact(report.latency_p99_s)));
  rep.facts.emplace_back("jobs_digest", str(digest(results)));

  if (report.jobs.size() != specs.size()) {
    fail(rep, "service finished " + std::to_string(report.jobs.size()) +
                  " of " + std::to_string(specs.size()) + " jobs");
    return;
  }
  Rng pick(args.seed ^ 0x5eedu);
  for (std::size_t k = 0; k < kServeSamples; ++k) {
    const auto& got = report.jobs[pick.next_below(report.jobs.size())];
    const service::JobResult solo =
        service::run_job_solo(specs.at(got.id), options.chip, 1);
    if (solo.hash != got.hash || ledger_of(solo) != ledger_of(got)) {
      fail(rep, "job " + std::to_string(got.id) + " differs from its solo run");
    }
  }
}

// --- trace read-back -----------------------------------------------------

/// Per-span aggregates over a repetition's snapshot: count, inclusive and self time
/// (inclusive minus the direct children on the same thread) and the sum
/// of the Begin values, plus the spans left unmatched (an End without its
/// Begin) and the events the rings dropped. `system.compare_all` is
/// skipped: it wraps the same call as the benchmark's `core.compare_all`
/// span, whose self time then covers the GPU rows, normalisation and
/// cell building.
Members trace_summary(const Rep& rep) {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    double value_sum = 0.0;
  };
  struct Open {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    double value;
  };
  std::map<std::string, Agg> aggs;
  std::map<std::uint32_t, std::vector<Open>> stacks;
  std::uint64_t unbalanced = 0;
  for (const auto& e : rep.events) {
    if ((e.type != trace::EventType::Begin &&
         e.type != trace::EventType::End) ||
        std::strcmp(e.name, "system.compare_all") == 0) {
      continue;
    }
    auto& stack = stacks[e.tid];
    if (e.type == trace::EventType::Begin) {
      stack.push_back({e.name, e.ts_ns, 0, e.value});
      continue;
    }
    if (stack.empty() || std::strcmp(stack.back().name, e.name) != 0) {
      ++unbalanced;
      continue;
    }
    const Open open = stack.back();
    stack.pop_back();
    const std::uint64_t dur = e.ts_ns - open.start_ns;
    Agg& agg = aggs[open.name];
    agg.count += 1;
    agg.total_ns += dur;
    agg.self_ns += dur - std::min(dur, open.child_ns);
    agg.value_sum += open.value;
    if (!stack.empty()) {
      stack.back().child_ns += dur;
    }
  }
  Members spans;
  for (const auto& [name, agg] : aggs) {
    spans.emplace_back(
        name, json::Value::make_object(
                  {{"count", num(static_cast<double>(agg.count))},
                   {"total_s", num(static_cast<double>(agg.total_ns) * 1e-9)},
                   {"self_s", num(static_cast<double>(agg.self_ns) * 1e-9)},
                   {"value_sum", num(agg.value_sum)}}));
  }
  return {
      {"spans", json::Value::make_object(std::move(spans))},
      {"unbalanced", num(static_cast<double>(unbalanced))},
      {"dropped", num(static_cast<double>(rep.dropped))},
  };
}

/// Ring capacity per recording thread, sized so no workload overwrites
/// events (a dropped event invalidates the traced run): about 500 events
/// per simulate step land on one thread, and a 256-job serve run (also
/// the pass of a traced simulate run) records about 350K on one thread.
std::size_t ring_capacity(const Args& args) {
  static_assert(1024 * (kSimSteps + 1) <= (1 << 20));
  return args.workload == "simulate" || args.workload == "serve"
             ? (1u << 20)
             : (1u << 14);
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) {
    return false;
  }
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--trace") {
      args.trace = true;
    } else if (a == "--setup-only") {
      args.setup_only = true;
    } else if (a == "--verify") {
      args.verify = true;
    } else if (a == "--pool") {
      args.pool = true;
    } else if (a == "--seed" && i + 1 < argc && argv[i + 1][0] >= '0' &&
               argv[i + 1][0] <= '9') {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench <project|fig14|simulate|serve> [--seed N] "
                 "[--trace] [--setup-only] [--pool] [--verify]\n");
    return 2;
  }
  // A stray knob would change what is measured: every setting is pinned
  // through the API instead.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "WAVEPIM_", 8) == 0) {
      std::fprintf(stderr, "error: refusing to run with %s set\n", *env);
      return 2;
    }
  }
  // simulate is serial throughout, its CPU reference solver included;
  // the other workloads get min(4, nproc) global workers.
  const std::size_t global_workers =
      args.workload == "simulate" ? 1 : pool_workers();
  ThreadPool::set_global_threads(global_workers);
  if (args.trace) {
    trace::Collector::instance().set_ring_capacity(ring_capacity(args));
    trace::set_enabled(true);
  }

  Rep rep;
  try {
    if (args.workload == "project") {
      run_project(args, rep);
    } else if (args.workload == "fig14") {
      run_fig14(args, rep);
    } else if (args.workload == "simulate") {
      run_simulate(args, rep);
    } else if (args.workload == "serve") {
      run_serve(args, rep);
    } else {
      std::fprintf(stderr, "error: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  Members out;
  out.emplace_back("workload", str(args.workload));
  out.emplace_back("ready_ns", num(static_cast<double>(rep.ready_ns)));
  out.emplace_back("wall_s", num(rep.wall_s));
  out.emplace_back("step_s", num_array(rep.step_s));
  out.emplace_back("peak_rss_mb", num(rep.peak_rss_mb));
  out.emplace_back("ok", json::Value::make_bool(rep.ok));
  out.emplace_back("detail", str(rep.detail));
  out.emplace_back("facts", json::Value::make_object(std::move(rep.facts)));
  out.emplace_back(
      "host",
      json::Value::make_object(
          {{"nproc", num(static_cast<double>(nproc()))},
           {"global_workers", num(static_cast<double>(global_workers))},
           {"pool_workers", num(static_cast<double>(pool_workers()))},
           {"build_type", str(PERFBENCH_BUILD_TYPE)},
           {"compiler", str(__VERSION__)},
           {"avx2", json::Value::make_bool(mapping::wordavx::supported())}}));
  if (args.trace && !args.setup_only) {
    out.emplace_back("trace", json::Value::make_object(trace_summary(rep)));
  }
  for (auto& member : rep.extra) {
    out.push_back(std::move(member));
  }
  std::printf("%s\n",
              json::dump(json::Value::make_object(std::move(out))).c_str());
  return 0;
}
