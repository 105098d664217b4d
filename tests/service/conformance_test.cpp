// ServiceConformance: the scheduler's bit-identity contract. Every job
// that goes through the multiplexed chips — whatever the policy, chip
// count or host thread count, including jobs that were preempted and
// resumed on a different chip slot — must hand back the exact field
// hash, per-channel cost ledgers and link statistics of a solo run.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "service/job.h"
#include "service/scheduler.h"
#include "support/preemption_stream.h"

namespace wavepim::service {
namespace {

void expect_matches_solo(const JobResult& got, const JobResult& solo) {
  EXPECT_EQ(got.id, solo.id);
  EXPECT_EQ(got.hash, solo.hash) << "field diverged for job " << got.id;
  const auto expect_channel = [&](const pim::OpCost& a, const pim::OpCost& b,
                                  const char* channel) {
    EXPECT_EQ(a.time.value(), b.time.value())
        << channel << " time diverged for job " << got.id;
    EXPECT_EQ(a.energy.value(), b.energy.value())
        << channel << " energy diverged for job " << got.id;
  };
  expect_channel(got.costs.volume, solo.costs.volume, "volume");
  expect_channel(got.costs.flux, solo.costs.flux, "flux");
  expect_channel(got.costs.integration, solo.costs.integration,
                 "integration");
  expect_channel(got.costs.network, solo.costs.network, "network");
  expect_channel(got.costs.hbm, solo.costs.hbm, "hbm");
  EXPECT_EQ(got.net.schedules, solo.net.schedules);
  EXPECT_EQ(got.net.transfers, solo.net.transfers);
  EXPECT_EQ(got.net.words, solo.net.words);
  EXPECT_EQ(got.net.serial_sum.value(), solo.net.serial_sum.value());
  EXPECT_EQ(got.net.stall_time.value(), solo.net.stall_time.value());
  EXPECT_EQ(got.net.max_utilization, solo.net.max_utilization);
  EXPECT_EQ(got.net.peak_queue, solo.net.peak_queue);
  EXPECT_EQ(got.steps_run, solo.steps_run);
}

// One chip slot serves an n1d = 2 tenant (8-row block extent), an
// n1d = 4 tenant (64 rows), then n1d = 2 again: each tenant's chip takes
// its own extent, and each job must still match its solo run.
TEST(ServiceConformance, SuccessiveTenantsTakeTheirOwnRowExtent) {
  std::vector<JobSpec> specs;
  for (const int n1d : {2, 4, 2}) {
    JobSpec spec;
    spec.id = static_cast<std::uint32_t>(specs.size());
    spec.arrival_s = 1.0e-4 * spec.id;
    spec.n1d = n1d;
    spec.steps = 2;
    spec.state_seed = 5 + spec.id;
    specs.push_back(spec);
  }
  ServiceOptions svc;
  svc.num_chips = 1;
  svc.policy = Policy::Fifo;
  const ServiceReport report = Scheduler(svc).run(specs);
  ASSERT_EQ(report.jobs.size(), specs.size());
  for (const JobSpec& spec : specs) {
    expect_matches_solo(report.jobs[spec.id],
                        run_job_solo(spec, pim::chip_512mb()));
  }
}

/// The shared 8-job stream and its solo reference results, computed
/// once for the whole grid.
const std::vector<JobSpec>& grid_specs() {
  static const std::vector<JobSpec> specs = generate_jobs(
      {.num_jobs = 8, .seed = 11, .mean_interarrival_s = 2.0e-4,
       .max_steps = 3});
  return specs;
}

const JobResult& solo_result(const JobSpec& spec) {
  static std::map<std::uint32_t, JobResult> cache;
  auto it = cache.find(spec.id);
  if (it == cache.end()) {
    it = cache.emplace(spec.id, run_job_solo(spec, pim::chip_512mb())).first;
  }
  return it->second;
}

using GridParam = std::tuple<Policy, std::uint32_t, std::size_t>;

class ServiceConformance : public ::testing::TestWithParam<GridParam> {};

TEST_P(ServiceConformance, EveryJobMatchesItsSoloRun) {
  const auto [policy, chips, threads] = GetParam();
  const auto& specs = grid_specs();
  ServiceOptions svc;
  svc.num_chips = chips;
  svc.policy = policy;
  svc.threads = threads;
  const ServiceReport report = Scheduler(svc).run(specs);
  ASSERT_EQ(report.jobs.size(), specs.size());
  for (const JobSpec& spec : specs) {
    expect_matches_solo(report.jobs[spec.id], solo_result(spec));
  }
}

std::string grid_name(const ::testing::TestParamInfo<GridParam>& info) {
  const auto [policy, chips, threads] = info.param;
  return std::string(to_string(policy)) + "_" + std::to_string(chips) +
         "chips_" + std::to_string(threads) + "threads";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ServiceConformance,
    ::testing::Combine(::testing::Values(Policy::Fifo, Policy::Srs,
                                         Policy::Edf),
                       ::testing::Values(1u, 4u),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    grid_name);

class PreemptionConformance : public ::testing::TestWithParam<Policy> {};

// At 4 threads a parked job gives up a 4-worker pool and takes a new
// one on resume.
TEST_P(PreemptionConformance, ParkedJobsResumeBitIdentical) {
  const auto specs = preemption_specs();
  std::vector<JobResult> solo;
  for (const JobSpec& spec : specs) {
    solo.push_back(run_job_solo(spec, pim::chip_512mb()));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ServiceOptions svc;
    svc.num_chips = 1;
    svc.policy = GetParam();
    svc.threads = threads;
    const ServiceReport report = Scheduler(svc).run(specs);
    EXPECT_GE(report.preemptions, 1u) << "stream was built to preempt";
    EXPECT_GE(report.jobs[0].preemptions, 1u);
    for (const JobSpec& spec : specs) {
      expect_matches_solo(report.jobs[spec.id], solo[spec.id]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PreemptionConformance,
                         ::testing::Values(Policy::Srs, Policy::Edf),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

/// Capped chips: level-2 acoustic tenants overflow a 32-block chip and
/// run through the batched residency window; the service must stay
/// bit-identical to solo runs on the same capped configuration,
/// including across a preemption.
TEST(ServiceConformance, WindowedPoolMatchesSoloRuns) {
  std::vector<JobSpec> specs;
  for (std::uint32_t i = 0; i < 3; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.arrival_s = 1.0e-12 * static_cast<double>(i + 1);
    spec.kind = dg::ProblemKind::Acoustic;
    spec.expansion = mapping::ExpansionMode::None;
    spec.refinement_level = 2;
    spec.steps = i == 0 ? 3 : 1;
    spec.deadline_s = i == 0 ? 0.0 : 1.0e-6 * static_cast<double>(i);
    spec.state_seed = 31 + i;
    specs.push_back(spec);
  }
  ServiceOptions svc;
  svc.num_chips = 2;
  svc.policy = Policy::Edf;
  svc.chip = pim::chip_512mb();
  svc.chip.block_limit = 32;
  const ServiceReport report = Scheduler(svc).run(specs);
  for (const JobSpec& spec : specs) {
    expect_matches_solo(report.jobs[spec.id], run_job_solo(spec, svc.chip));
    EXPECT_GT(report.jobs[spec.id].costs.hbm.time.value(), 0.0)
        << "capped chip should stage through HBM";
  }
}

/// Zero-step jobs (the scheduler-overhead benchmark's stream) still
/// round-trip the state: load at bind, read at completion, ledgers
/// identical to solo.
TEST(ServiceConformance, ZeroStepJobsMatchSolo) {
  const auto specs = generate_jobs(
      {.num_jobs = 6, .seed = 23, .zero_step_jobs = true});
  ServiceOptions svc;
  svc.num_chips = 2;
  svc.policy = Policy::Fifo;
  const ServiceReport report = Scheduler(svc).run(specs);
  EXPECT_EQ(report.preemptions, 0u);
  for (const JobSpec& spec : specs) {
    expect_matches_solo(report.jobs[spec.id],
                        run_job_solo(spec, pim::chip_512mb()));
  }
}

}  // namespace
}  // namespace wavepim::service
