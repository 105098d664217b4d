#include "service/scheduler.h"

#include <gtest/gtest.h>

#include "service/program_bank.h"
#include "support/preemption_stream.h"

namespace wavepim::service {
namespace {

std::vector<JobSpec> small_stream(std::uint32_t num_jobs) {
  return generate_jobs({.num_jobs = num_jobs, .seed = 19,
                        .mean_interarrival_s = 1.0e-4, .max_steps = 3});
}

TEST(Scheduler, FifoNeverPreempts) {
  ServiceOptions svc;
  svc.num_chips = 1;
  svc.policy = Policy::Fifo;
  const ServiceReport report = Scheduler(svc).run(small_stream(8));
  EXPECT_EQ(report.preemptions, 0u);
  for (const JobResult& job : report.jobs) {
    EXPECT_EQ(job.preemptions, 0u);
  }
}

TEST(Scheduler, FifoCompletesInArrivalOrderOnOneChip) {
  ServiceOptions svc;
  svc.num_chips = 1;
  svc.policy = Policy::Fifo;
  const ServiceReport report = Scheduler(svc).run(small_stream(6));
  // Ids are assigned in arrival order, so completions must be
  // nondecreasing in id on a single non-preemptive chip.
  double prev = 0.0;
  for (const JobResult& job : report.jobs) {
    EXPECT_GE(job.completion_s, prev);
    prev = job.completion_s;
  }
}

TEST(Scheduler, EdfFinishesUrgentJobEarlierThanFifo) {
  // One long deadline-free job, then an urgent one-step job: EDF parks
  // the long job, FIFO makes the urgent one wait the whole way.
  std::vector<JobSpec> specs(2);
  specs[0].id = 0;
  specs[0].steps = 6;
  specs[1].id = 1;
  specs[1].arrival_s = 1.0e-12;
  specs[1].steps = 1;
  specs[1].deadline_s = 1.0e-6;
  specs[1].state_seed = 5;

  ServiceOptions svc;
  svc.num_chips = 1;
  svc.policy = Policy::Fifo;
  const double fifo_done = Scheduler(svc).run(specs).jobs[1].completion_s;
  svc.policy = Policy::Edf;
  const ServiceReport edf = Scheduler(svc).run(specs);
  EXPECT_GE(edf.preemptions, 1u);
  EXPECT_LT(edf.jobs[1].completion_s, fifo_done);
}

TEST(Scheduler, SrsRunsShortestRemainingFirst) {
  // Same shape with SRS: the 1-step job outranks the 6-step one.
  std::vector<JobSpec> specs(2);
  specs[0].id = 0;
  specs[0].steps = 6;
  specs[1].id = 1;
  specs[1].arrival_s = 1.0e-12;
  specs[1].steps = 1;
  specs[1].state_seed = 5;

  ServiceOptions svc;
  svc.num_chips = 1;
  svc.policy = Policy::Srs;
  const ServiceReport report = Scheduler(svc).run(specs);
  EXPECT_GE(report.preemptions, 1u);
  EXPECT_LT(report.jobs[1].completion_s, report.jobs[0].completion_s);
}

TEST(Scheduler, ReportStatisticsAreConsistent) {
  ServiceOptions svc;
  svc.num_chips = 2;
  svc.policy = Policy::Edf;
  const auto specs = small_stream(8);
  const ServiceReport report = Scheduler(svc).run(specs);
  ASSERT_EQ(report.jobs.size(), specs.size());
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    EXPECT_EQ(report.jobs[i].id, static_cast<std::uint32_t>(i));
    EXPECT_GE(report.jobs[i].latency_s(), 0.0);
    EXPECT_GE(report.jobs[i].first_bind_s, report.jobs[i].arrival_s);
    EXPECT_LE(report.jobs[i].completion_s, report.makespan_s);
  }
  EXPECT_GT(report.makespan_s, 0.0);
  EXPECT_LE(report.latency_p50_s, report.latency_p99_s);
  EXPECT_GT(report.chip_utilization, 0.0);
  EXPECT_LE(report.chip_utilization, 1.0);
  EXPECT_GE(report.max_queue_depth, 1u);
  // Every job either lowered its shape class or reused one, once: a
  // resumed job asks the bank nothing.
  EXPECT_EQ(report.cache_builds + report.cache_hits, report.jobs.size());
  EXPECT_GE(report.cache_builds, 1u);

  svc.num_chips = 1;
  const ServiceReport parked = Scheduler(svc).run(preemption_specs());
  ASSERT_GE(parked.preemptions, 1u) << "stream was built to preempt";
  EXPECT_EQ(parked.cache_builds + parked.cache_hits, parked.jobs.size());
}

TEST(Scheduler, MoreChipsNeverLengthenMakespan) {
  const auto specs = small_stream(8);
  ServiceOptions svc;
  svc.policy = Policy::Fifo;
  svc.num_chips = 1;
  const double one = Scheduler(svc).run(specs).makespan_s;
  svc.num_chips = 4;
  const double four = Scheduler(svc).run(specs).makespan_s;
  EXPECT_LE(four, one);
}

TEST(ProgramBank, SharesOneCachePerShapeClass) {
  ProgramBank bank;
  JobSpec acoustic;
  acoustic.kind = dg::ProblemKind::Acoustic;
  const auto a1 = bank.cache_for(acoustic);
  const auto a2 = bank.cache_for(acoustic);
  EXPECT_EQ(a1.get(), a2.get());
  EXPECT_EQ(bank.builds(), 1u);
  EXPECT_EQ(bank.hits(), 1u);

  // A different boundary pattern is a different class — sharing across
  // it would replay the wrong flux programs.
  JobSpec reflective = acoustic;
  reflective.boundary = mesh::Boundary::Reflective;
  const auto r = bank.cache_for(reflective);
  EXPECT_NE(r.get(), a1.get());
  EXPECT_EQ(bank.builds(), 2u);

  JobSpec elastic;
  elastic.kind = dg::ProblemKind::ElasticCentral;
  elastic.expansion = mapping::ExpansionMode::Elastic3;
  const auto e = bank.cache_for(elastic);
  EXPECT_NE(e.get(), a1.get());
  EXPECT_EQ(bank.builds(), 3u);
}

}  // namespace
}  // namespace wavepim::service
