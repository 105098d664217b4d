// wavepim_serve — simulation-as-a-service front end: generates a
// seeded stream of heterogeneous wave-simulation jobs and multiplexes
// it over a pooled chip fleet with the chosen scheduling policy,
// reporting per-job latency percentiles, chip utilization and queue
// pressure. Every job's final field and cost ledgers are bit-identical
// to a solo run of the same job, whatever the policy or pool size.
//
// Usage: wavepim_serve [--chips=N] [--jobs=N] [--policy=fifo|srs|edf]
//                      [--seed=N] [--threads=N] [--max-steps=N]
//                      [--zero-step] [--trace=FILE]
//                      [--topology=htree|bus]
//
// --topology configures every pooled chip's fabric. It is pricing-only:
// job field hashes and the compute/HBM ledgers are bit-identical on
// either fabric (pinned by NetBackendConformance).
//
// --trace records the run (service.* spans and counters plus the tenant
// simulations underneath) and writes Chrome trace-event JSON. These
// three go through the tools' shared front end (tools/frontend.h);
// --threads=N is this program's own: threads per tenant, not the global
// pool.
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "common/parse.h"
#include "common/units.h"
#include "frontend.h"
#include "service/chip_pool.h"
#include "service/job.h"
#include "service/scheduler.h"

using namespace wavepim;

namespace {

/// Whether `arg` is the `prefix` flag; `ok` then says whether its value
/// is plain digits below 2^32 (stored in `out`).
bool u32_flag(const char* arg, const char* prefix, std::uint32_t& out,
              bool& ok) {
  const std::size_t len = std::strlen(prefix);
  if (std::strncmp(arg, prefix, len) != 0) {
    return false;
  }
  ok = parse_u32(arg + len, out);
  return true;
}

/// Runs the generated job stream and prints the service report.
int serve(const service::GeneratorOptions& gen,
          const service::ServiceOptions& svc) {
  std::printf("Wave-PIM service: %u jobs (seed %llu) over %u chip(s), "
              "policy %s, %zu thread(s)/tenant, %s fabric\n\n",
              gen.num_jobs, static_cast<unsigned long long>(gen.seed),
              svc.num_chips, service::to_string(svc.policy), svc.threads,
              pim::to_string(svc.chip.topology));

  const auto specs = service::generate_jobs(gen);
  service::Scheduler scheduler(svc);
  const service::ServiceReport report = scheduler.run(specs);

  std::uint64_t missed_deadlines = 0;
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const auto& spec = specs[report.jobs[i].id];
    if (spec.deadline_s > 0.0 &&
        report.jobs[i].completion_s > spec.deadline_s) {
      ++missed_deadlines;
    }
  }

  std::printf("makespan          %s (trace clock)\n",
              format_time(seconds(report.makespan_s)).c_str());
  std::printf("job latency       p50 %s   p99 %s   mean %s\n",
              format_time(seconds(report.latency_p50_s)).c_str(),
              format_time(seconds(report.latency_p99_s)).c_str(),
              format_time(seconds(report.latency_mean_s)).c_str());
  std::printf("chip utilization  %.1f%%\n", 100.0 * report.chip_utilization);
  std::printf("max queue depth   %u\n", report.max_queue_depth);
  std::printf("preemptions       %llu\n",
              static_cast<unsigned long long>(report.preemptions));
  std::printf("missed deadlines  %llu\n",
              static_cast<unsigned long long>(missed_deadlines));
  std::printf("program bank      %llu classes lowered, %llu jobs reused one\n",
              static_cast<unsigned long long>(report.cache_builds),
              static_cast<unsigned long long>(report.cache_hits));
  std::printf("chip recycles     %llu\n",
              static_cast<unsigned long long>(report.chip_recycles));
  std::printf("network           %s serialized, %s on fabric "
              "(overlap %.2fx, %llu transfers, %llu words)\n",
              format_time(seconds(report.net.serial_s)).c_str(),
              format_time(seconds(report.net.time_s)).c_str(),
              report.net.overlap(),
              static_cast<unsigned long long>(report.net.transfers),
              static_cast<unsigned long long>(report.net.words));
  std::printf("link queuing      stall %s, max utilization %.1f%%, "
              "peak queue %llu\n",
              format_time(seconds(report.net.stall_s)).c_str(),
              100.0 * report.net.max_utilization,
              static_cast<unsigned long long>(report.net.peak_queue));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  service::GeneratorOptions gen;
  service::ServiceOptions svc;
  std::uint32_t seed32 = 1;
  std::uint32_t threads32 = 1;
  frontend::SharedFlags flags;

  for (int i = 1; i < argc; ++i) {
    const auto parsed = frontend::parse_flag(
        argc, argv, i, frontend::kTrace | frontend::kTopology, flags);
    if (parsed == frontend::Parse::Bad) {
      return 2;
    }
    if (parsed == frontend::Parse::Consumed) {
      continue;
    }
    bool ok = true;
    if (u32_flag(argv[i], "--chips=", svc.num_chips, ok) ||
        u32_flag(argv[i], "--jobs=", gen.num_jobs, ok) ||
        u32_flag(argv[i], "--max-steps=", gen.max_steps, ok) ||
        u32_flag(argv[i], "--seed=", seed32, ok) ||
        u32_flag(argv[i], "--threads=", threads32, ok)) {
      if (!ok) {
        std::fprintf(stderr, "error: %s wants a count below 2^32\n",
                     argv[i]);
        return 2;
      }
      continue;
    }
    if (std::strncmp(argv[i], "--policy=", 9) == 0) {
      const auto policy = service::parse_policy(argv[i] + 9);
      if (!policy) {
        std::fprintf(stderr, "error: unknown policy '%s'\n", argv[i] + 9);
        return 2;
      }
      svc.policy = *policy;
      continue;
    }
    if (std::strcmp(argv[i], "--zero-step") == 0) {
      gen.zero_step_jobs = true;
      continue;
    }
    std::fprintf(stderr,
                 "usage: wavepim_serve [--chips=N] [--jobs=N] "
                 "[--policy=fifo|srs|edf] [--seed=N] [--threads=N] "
                 "[--max-steps=N] [--zero-step] [--trace=FILE] "
                 "[--topology=htree|bus]\n");
    return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
  }
  gen.seed = seed32;
  svc.threads = threads32;
  flags.apply_fabric(svc.chip);
  if (svc.num_chips == 0 || gen.num_jobs == 0) {
    std::fprintf(stderr, "error: --chips and --jobs must be positive\n");
    return 2;
  }
  return frontend::run(flags, [&] { return serve(gen, svc); });
}
