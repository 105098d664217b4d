#include "service/scheduler.h"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/statistics.h"
#include "service/chip_pool.h"
#include "trace/trace.h"

namespace wavepim::service {

const char* to_string(Policy policy) {
  switch (policy) {
    case Policy::Fifo:
      return "fifo";
    case Policy::Srs:
      return "srs";
    case Policy::Edf:
      return "edf";
  }
  return "?";
}

std::optional<Policy> parse_policy(std::string_view name) {
  if (name == "fifo") {
    return Policy::Fifo;
  }
  if (name == "srs") {
    return Policy::Srs;
  }
  if (name == "edf") {
    return Policy::Edf;
  }
  return std::nullopt;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A job's scheduler-side state. The parked ledgers and checkpoint hold
/// everything a resume needs to continue the solo run's exact
/// floating-point fold on a different chip.
struct Job {
  JobSpec spec;
  bool done = false;
  std::uint32_t steps_done = 0;
  std::uint32_t preemptions = 0;
  double first_bind_s = 0.0;
  mapping::PimSimulation::Costs costs;
  mapping::PimSimulation::NetStats net;
  std::vector<float> parked;
  bool has_checkpoint = false;
  JobResult result;
};

/// One chip's binding: the tenant simulation and the in-flight quantum's
/// virtual completion time.
struct ChipSlot {
  std::unique_ptr<mapping::PimSimulation> sim;
  int job = -1;
  bool inflight = false;
  double quantum_end = kInf;
  double busy_prev = 0.0;  ///< modelled total time before the quantum
};

}  // namespace

ServiceReport Scheduler::run(std::vector<JobSpec> specs) {
  trace::Span run_span("service.run");
  std::sort(specs.begin(), specs.end(),
            [](const JobSpec& a, const JobSpec& b) {
              return a.arrival_s != b.arrival_s ? a.arrival_s < b.arrival_s
                                                : a.id < b.id;
            });
  std::vector<Job> jobs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    jobs[i].spec = specs[i];
  }

  ChipPool pool(options_.num_chips, options_.chip);
  ProgramBank bank;
  std::vector<ChipSlot> slots(options_.num_chips);
  std::vector<int> queue;  ///< indices into `jobs`, unordered
  std::size_t next_arrival = 0;
  std::size_t num_done = 0;
  double now = 0.0;
  double busy_s = 0.0;
  std::uint32_t max_queue_depth = 0;
  std::uint64_t preemptions = 0;

  // Lexicographic priority: smaller runs first. The trailing id makes
  // every ordering total, so runs are reproducible.
  const auto key_of = [&](const Job& job) -> std::array<double, 3> {
    switch (options_.policy) {
      case Policy::Srs:
        return {static_cast<double>(job.spec.steps - job.steps_done),
                job.spec.arrival_s, static_cast<double>(job.spec.id)};
      case Policy::Edf:
        return {job.spec.deadline_s > 0.0 ? job.spec.deadline_s : kInf,
                job.spec.arrival_s, static_cast<double>(job.spec.id)};
      case Policy::Fifo:
        break;
    }
    return {job.spec.arrival_s, static_cast<double>(job.spec.id), 0.0};
  };

  const auto complete = [&](std::uint32_t ci) {
    trace::Span span("service.complete");
    ChipSlot& slot = slots[ci];
    Job& job = jobs[static_cast<std::size_t>(slot.job)];
    // read_state charges the readback to the hbm channel exactly like
    // the solo run's single readback (parked snapshots were cost-free).
    const dg::Field out = slot.sim->read_state();
    job.result.id = job.spec.id;
    job.result.hash = field_hash(out);
    job.result.costs = slot.sim->costs();
    job.result.net = slot.sim->net_stats();
    job.result.steps_run = job.steps_done;
    job.result.arrival_s = job.spec.arrival_s;
    job.result.first_bind_s = job.first_bind_s;
    job.result.completion_s = now;
    job.result.preemptions = job.preemptions;
    job.done = true;
    ++num_done;
    trace::instant("service.depart", job.spec.id);
    slot.sim.reset();  // before recycle: residency aliases the blocks
    pool.recycle(ci);
    slot.job = -1;
  };

  const auto bind = [&](std::uint32_t ci, int j) {
    trace::Span span("service.bind");
    ChipSlot& slot = slots[ci];
    Job& job = jobs[static_cast<std::size_t>(j)];
    auto sim = std::make_unique<mapping::PimSimulation>(
        job.spec.problem(), job.spec.expansion, pool.chip(ci),
        job.spec.boundary);
    sim->set_num_threads(options_.threads);
    sim->set_shared_cache(bank.cache_for(job.spec));
    if (job.has_checkpoint) {
      trace::Span resume("service.resume");
      sim->restore_checkpoint(job.parked);
      sim->seed_ledgers(job.costs, job.net);
    } else {
      // First bind pays the state load (hbm channel), like solo.
      sim->load_state(initial_state(job.spec, *sim));
      job.first_bind_s = now;
    }
    slot.sim = std::move(sim);
    slot.job = j;
    if (job.steps_done == job.spec.steps) {
      complete(ci);  // zero-step job: admission and readback only
    }
  };

  const auto park = [&](std::uint32_t ci) {
    trace::Span span("service.park");
    ChipSlot& slot = slots[ci];
    const int j = slot.job;
    Job& job = jobs[static_cast<std::size_t>(j)];
    job.costs = slot.sim->costs();
    job.net = slot.sim->net_stats();
    job.parked = slot.sim->checkpoint();
    job.has_checkpoint = true;
    ++job.preemptions;
    ++preemptions;
    trace::instant("service.preempt", job.spec.id);
    slot.sim.reset();  // before recycle: residency aliases the blocks
    pool.recycle(ci);
    slot.job = -1;
    queue.push_back(j);
  };

  const auto pop_best = [&]() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue.size(); ++i) {
      if (key_of(jobs[static_cast<std::size_t>(queue[i])]) <
          key_of(jobs[static_cast<std::size_t>(queue[best])])) {
        best = i;
      }
    }
    const int j = queue[best];
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(best));
    return j;
  };

  while (num_done < jobs.size()) {
    // Next event: the earliest pending arrival or in-flight quantum end.
    double t = kInf;
    if (next_arrival < jobs.size()) {
      t = std::min(t, jobs[next_arrival].spec.arrival_s);
    }
    for (const ChipSlot& slot : slots) {
      if (slot.inflight) {
        t = std::min(t, slot.quantum_end);
      }
    }
    WAVEPIM_REQUIRE(t < kInf, "scheduler stalled: jobs remain but no event");
    now = std::max(now, t);

    // Admissions due by now.
    while (next_arrival < jobs.size() &&
           jobs[next_arrival].spec.arrival_s <= now) {
      trace::instant("service.admit",
                     static_cast<double>(jobs[next_arrival].spec.id));
      queue.push_back(static_cast<int>(next_arrival));
      ++next_arrival;
    }

    // Quantum completions due by now; chips whose job finished free up.
    for (std::uint32_t ci = 0; ci < slots.size(); ++ci) {
      ChipSlot& slot = slots[ci];
      if (slot.inflight && slot.quantum_end <= now) {
        slot.inflight = false;
        Job& job = jobs[static_cast<std::size_t>(slot.job)];
        ++job.steps_done;
        if (job.steps_done == job.spec.steps) {
          complete(ci);
        }
      }
    }

    // Preemption (Srs/Edf): a chip at a step boundary parks its tenant
    // when a strictly higher-priority job waits. Fifo never preempts.
    if (options_.policy != Policy::Fifo && !queue.empty()) {
      for (std::uint32_t ci = 0; ci < slots.size(); ++ci) {
        ChipSlot& slot = slots[ci];
        if (slot.job < 0 || slot.inflight || queue.empty()) {
          continue;
        }
        auto best = key_of(jobs[static_cast<std::size_t>(queue[0])]);
        for (std::size_t i = 1; i < queue.size(); ++i) {
          best = std::min(
              best, key_of(jobs[static_cast<std::size_t>(queue[i])]));
        }
        if (best < key_of(jobs[static_cast<std::size_t>(slot.job)])) {
          park(ci);
        }
      }
    }

    // Bind free chips, best-priority job first, ascending chip index.
    for (std::uint32_t ci = 0; ci < slots.size() && !queue.empty(); ++ci) {
      if (slots[ci].job < 0) {
        bind(ci, pop_best());
      }
    }

    max_queue_depth =
        std::max(max_queue_depth, static_cast<std::uint32_t>(queue.size()));
    trace::counter("service.queue_depth",
                   static_cast<double>(queue.size()));

    // Launch the next quantum on every bound, idle chip — host-parallel
    // across chips (distinct sims on distinct chips; the shared program
    // bank synchronizes internally). Virtual duration is the modelled
    // cost delta, so ordering decisions never see host timing.
    std::vector<std::uint32_t> launch;
    for (std::uint32_t ci = 0; ci < slots.size(); ++ci) {
      if (slots[ci].job >= 0 && !slots[ci].inflight) {
        launch.push_back(ci);
      }
    }
    for (const std::uint32_t ci : launch) {
      slots[ci].busy_prev = slots[ci].sim->costs().total().time.value();
    }
    parallel_for(launch.size(), [&](std::size_t i) {
      trace::Span span("service.quantum");
      slots[launch[i]].sim->step(kJobDt);
    });
    for (const std::uint32_t ci : launch) {
      ChipSlot& slot = slots[ci];
      const double dur =
          slot.sim->costs().total().time.value() - slot.busy_prev;
      slot.quantum_end = now + dur;
      slot.inflight = true;
      busy_s += dur;
    }
  }

  ServiceReport report;
  report.jobs.reserve(jobs.size());
  std::vector<double> latencies;
  latencies.reserve(jobs.size());
  for (Job& job : jobs) {
    latencies.push_back(job.result.latency_s());
    report.makespan_s = std::max(report.makespan_s, job.result.completion_s);
    report.latency_mean_s += job.result.latency_s();
    report.net.serial_s += job.result.net.serial_sum.value();
    report.net.time_s += job.result.costs.network.time.value();
    report.net.transfers += job.result.net.transfers;
    report.net.words += job.result.net.words;
    report.net.stall_s += job.result.net.stall_time.value();
    report.net.max_utilization =
        std::max(report.net.max_utilization, job.result.net.max_utilization);
    report.net.peak_queue =
        std::max(report.net.peak_queue, job.result.net.peak_queue);
    report.jobs.push_back(std::move(job.result));
  }
  std::sort(report.jobs.begin(), report.jobs.end(),
            [](const JobResult& a, const JobResult& b) { return a.id < b.id; });
  if (!jobs.empty()) {
    report.latency_mean_s /= static_cast<double>(jobs.size());
  }
  report.latency_p50_s = percentile(latencies, 50.0);
  report.latency_p99_s = percentile(latencies, 99.0);
  if (report.makespan_s > 0.0) {
    report.chip_utilization =
        busy_s / (static_cast<double>(options_.num_chips) * report.makespan_s);
  }
  report.max_queue_depth = max_queue_depth;
  report.preemptions = preemptions;
  report.cache_builds = bank.builds();
  report.cache_hits = bank.hits();
  report.chip_recycles = pool.recycles();

  trace::counter("service.jobs", static_cast<double>(report.jobs.size()));
  trace::counter("service.max_queue_depth",
                 static_cast<double>(max_queue_depth));
  trace::counter("service.preemptions", static_cast<double>(preemptions));
  trace::counter("service.chip_utilization", report.chip_utilization);
  trace::counter("service.cache_builds",
                 static_cast<double>(report.cache_builds));
  trace::counter("service.cache_hits",
                 static_cast<double>(report.cache_hits));
  trace::counter("service.net_overlap", report.net.overlap());
  return report;
}

}  // namespace wavepim::service
