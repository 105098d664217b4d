#include "mapping/estimator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "common/error.h"
#include "mapping/element_program.h"
#include "mapping/program_cache.h"
#include "mapping/sinks.h"
#include "mesh/face.h"
#include "trace/trace.h"

namespace wavepim::mapping {
namespace {

using dg::ProblemKind;

/// Number of net.schedule spans `body` begins.
template <typename Body>
std::uint64_t count_schedules(Body&& body) {
  trace::Collector::instance().reset();
  trace::set_enabled(true);
  body();
  trace::set_enabled(false);
  std::uint64_t schedules = 0;
  for (const auto& event : trace::Collector::instance().snapshot()) {
    schedules += event.type == trace::EventType::Begin &&
                 event.name != nullptr &&
                 std::string_view(event.name) == "net.schedule";
  }
  trace::Collector::instance().reset();
  return schedules;
}

void expect_same_result(const pim::ScheduleResult& got,
                        const pim::ScheduleResult& want) {
  EXPECT_EQ(got.makespan.value(), want.makespan.value());
  EXPECT_EQ(got.serial_sum.value(), want.serial_sum.value());
  EXPECT_EQ(got.energy.value(), want.energy.value());
}

TEST(Estimator, UsesTable5Configuration) {
  Estimator e({ProblemKind::Acoustic, 4, 8}, pim::chip_2gb());
  EXPECT_EQ(e.config().label(), "Ep");
  Estimator b({ProblemKind::Acoustic, 5, 8}, pim::chip_512mb());
  EXPECT_EQ(b.config().label(), "B");
}

TEST(Estimator, PipeliningHelps) {
  Estimator e({ProblemKind::Acoustic, 4, 8}, pim::chip_512mb());
  const auto& est = e.estimate();
  EXPECT_LT(est.step_time, est.step_time_unpipelined);
  // Paper §7.5: without pipelining the throughput drops to ~0.77x, i.e.
  // the pipelined schedule is ~1.1-1.6x faster.
  EXPECT_GT(est.pipeline_speedup(), 1.05);
  EXPECT_LT(est.pipeline_speedup(), 2.0);
}

TEST(Estimator, SegmentsArePositive) {
  Estimator e({ProblemKind::ElasticRiemann, 4, 8}, pim::chip_2gb());
  const auto& seg = e.estimate().segments;
  EXPECT_GT(seg.volume.value(), 0.0);
  EXPECT_GT(seg.fetch_minus.value(), 0.0);
  EXPECT_GT(seg.fetch_plus.value(), 0.0);
  EXPECT_GT(seg.compute_minus.value(), 0.0);
  EXPECT_GT(seg.compute_plus.value(), 0.0);
  EXPECT_GT(seg.integration.value(), 0.0);
  EXPECT_GT(seg.host_preprocess.value(), 0.0);
}

TEST(Estimator, BatchingAddsHbmTraffic) {
  Estimator resident({ProblemKind::Acoustic, 4, 8}, pim::chip_512mb());
  Estimator batched({ProblemKind::Acoustic, 5, 8}, pim::chip_512mb());
  EXPECT_EQ(resident.estimate().hbm_bytes_per_step, 0u);
  EXPECT_GT(batched.estimate().hbm_bytes_per_step, 0u);
  EXPECT_GT(batched.estimate().hbm_time_per_step.value(), 0.0);
}

TEST(Estimator, HtreeBeatsBusOnFetch) {
  // Fig. 14: with intensive inter-block flux traffic the H-tree clearly
  // outperforms the bus.
  Estimator ht({ProblemKind::Acoustic, 4, 8},
               pim::chip_512mb(pim::Topology::HTree));
  Estimator bus({ProblemKind::Acoustic, 4, 8},
                pim::chip_512mb(pim::Topology::Bus));
  EXPECT_LT(ht.estimate().flux_inter_element.value(),
            bus.estimate().flux_inter_element.value());
  EXPECT_LT(ht.estimate().step_time, bus.estimate().step_time);
}

TEST(Estimator, ExpansionReducesStepTime) {
  // Acoustic_4 on 2 GB: naive vs expanded (the Table 5 choice).
  Estimator naive({ProblemKind::Acoustic, 4, 8}, pim::chip_2gb(),
                  {.force_expansion = ExpansionMode::None});
  Estimator expanded({ProblemKind::Acoustic, 4, 8}, pim::chip_2gb(),
                     {.force_expansion = ExpansionMode::Acoustic4});
  EXPECT_LT(expanded.estimate().step_time, naive.estimate().step_time);
}

TEST(Estimator, RiemannCostsMoreThanCentral) {
  Estimator central({ProblemKind::ElasticCentral, 4, 8}, pim::chip_8gb());
  Estimator riemann({ProblemKind::ElasticRiemann, 4, 8}, pim::chip_8gb());
  EXPECT_GT(riemann.estimate().segments.compute_minus.value(),
            central.estimate().segments.compute_minus.value());
  EXPECT_GT(riemann.estimate().step_time, central.estimate().step_time);
}

TEST(Estimator, LargerChipIsNotSlower) {
  Estimator small({ProblemKind::Acoustic, 5, 8}, pim::chip_512mb());
  Estimator large({ProblemKind::Acoustic, 5, 8}, pim::chip_16gb());
  EXPECT_LE(large.estimate().step_time, small.estimate().step_time);
}

TEST(Estimator, LargerChipBurnsMoreStaticPower) {
  // §7.4: small problems cannot exploit large chips and lose energy to
  // under-utilised resources.
  Estimator small({ProblemKind::Acoustic, 4, 8}, pim::chip_512mb());
  Estimator large({ProblemKind::Acoustic, 4, 8}, pim::chip_16gb());
  const double p_small = small.estimate().static_energy.value() /
                         small.estimate().step_time.value();
  const double p_large = large.estimate().static_energy.value() /
                         large.estimate().step_time.value();
  EXPECT_GT(p_large, 5.0 * p_small);
}

TEST(Estimator, EnergyComponentsSumToTotal) {
  Estimator e({ProblemKind::ElasticCentral, 4, 8}, pim::chip_2gb());
  const auto& est = e.estimate();
  const double sum = est.dynamic_energy.value() + est.static_energy.value() +
                     est.network_energy.value() + est.host_energy.value() +
                     est.hbm_energy.value();
  EXPECT_NEAR(est.step_energy.value(), sum, 1e-12 * sum);
}

TEST(Estimator, RunCostScalesLinearly) {
  Estimator e({ProblemKind::Acoustic, 4, 8}, pim::chip_2gb());
  const auto one = e.run_cost(1);
  const auto thousand = e.run_cost(1024);
  EXPECT_NEAR(thousand.time.value() / one.time.value(), 1024.0, 1e-6);
  EXPECT_NEAR(thousand.energy.value() / one.energy.value(), 1024.0, 1e-6);
}

TEST(Estimator, StageScheduleTimelineIsConsistent) {
  Estimator e({ProblemKind::Acoustic, 4, 8}, pim::chip_512mb());
  const auto& s = e.estimate().stage_schedule;
  ASSERT_EQ(s.timeline.size(), 7u);
  for (const auto& iv : s.timeline) {
    EXPECT_GE(iv.end.value(), iv.start.value());
    EXPECT_LE(iv.end.value(), s.total.value() + 1e-15);
  }
  // The pipelined overlaps: host and fetch(-1) start with volume.
  EXPECT_EQ(s.timeline[1].start.value(), 0.0);
  EXPECT_EQ(s.timeline[2].start.value(), 0.0);
}

TEST(Estimator, SchedulesTheSharedFluxStagingBatchOnce) {
  // Acoustic_4 on PIM-2GB: both face signs stage the same intra-element
  // transfers...
  const Problem problem{ProblemKind::Acoustic, 4, 8};
  pim::ChipConfig chip = pim::chip_2gb();
  chip.net_backend = pim::NetBackendKind::Analytic;
  Estimator e(problem, chip);
  {
    const ElementSetup setup(problem, e.config().expansion, 1.0 / 16.0);
    ProgramCache cache(setup);
    const pim::ArithModel arith;
    SinkPricing pricing;
    pricing.model = &arith;
    CostSink minus(pricing, setup.num_groups());
    CostSink plus(pricing, setup.num_groups());
    for (const mesh::Face f : mesh::kAllFaces) {
      replay(cache.arena(), cache.flux(0, f),
             mesh::normal_sign(f) < 0 ? minus : plus);
    }
    ASSERT_FALSE(minus.intra().empty());
    ASSERT_EQ(minus.intra(), plus.intra());
  }

  // ...so the estimate schedules four batches instead of five...
  EXPECT_EQ(count_schedules([&] { (void)e.estimate(); }), 4u);
  const StepEstimate& est = e.estimate();

  // ...and prices the step exactly as the estimator that scheduled all
  // five did (values recorded from it, bit for bit).
  EXPECT_EQ(est.segments.compute_plus.value(), 0x1.e4bb44d3de52fp-15);
  EXPECT_EQ(est.segments.compute_minus.value(), 0x1.e4bb44d3de52fp-15);
  EXPECT_EQ(est.network_energy.value(), 0x1.79f505f357ac2p-12);
  EXPECT_EQ(est.step_time.value(), 0x1.42c67920a8414p-10);
  EXPECT_EQ(est.step_energy.value(), 0x1.4026a53d58b6p-3);
}

TEST(BatchPricer, ServesAStoredResultOnlyToChipsItsBlocksFit) {
  // 1,000 elements of two blocks each: the batch's largest block id is
  // 1,999, far inside PIM-16GB.
  BatchPricer::Recipe recipe;
  recipe.intra = {{.src_group = 0, .dst_group = 1, .words = 8}};
  recipe.blocks_per_element = 2;
  recipe.elements_per_batch = 1000;
  pim::ChipConfig big = pim::chip_16gb();
  big.net_backend = pim::NetBackendKind::Analytic;
  BatchPricer pricer;
  pim::ScheduleResult first;
  EXPECT_EQ(count_schedules([&] {
              first = pricer.price(pim::Interconnect(big), recipe);
            }),
            1u);

  // A chip whose block_limit ends just below that block is priced
  // afresh, and throws as it would without the pricer...
  pim::ChipConfig limited = big;
  limited.block_limit = 1999;
  EXPECT_THROW((void)pricer.price(pim::Interconnect(limited), recipe),
               PreconditionError);

  // ...while one that just holds it is served the stored result.
  limited.block_limit = 2000;
  pim::ScheduleResult served;
  EXPECT_EQ(count_schedules([&] {
              served = pricer.price(pim::Interconnect(limited), recipe);
            }),
            0u);
  expect_same_result(served, first);
}

TEST(BatchPricer, PricesRecipesThatDifferInSignOrMortonSeparately) {
  // An 8 x 8 x 8 resident window (power-of-two, so Morton placement
  // applies) with one fetch descriptor per face.
  BatchPricer::Recipe minus;
  for (const mesh::Face f : mesh::kAllFaces) {
    minus.inter.push_back(
        {.face = f, .src_group = 0, .dst_group = 0, .words = 16});
  }
  minus.normal_sign = -1;
  minus.dim = 8;
  minus.slices_per_batch = 8;
  minus.blocks_per_element = 1;
  minus.elements_per_batch = 512;
  BatchPricer::Recipe plus = minus;
  plus.normal_sign = +1;
  BatchPricer::Recipe morton = minus;
  morton.morton = true;

  pim::ChipConfig chip = pim::chip_2gb();
  chip.net_backend = pim::NetBackendKind::Analytic;
  const pim::Interconnect net(chip);
  BatchPricer pricer;
  pim::ScheduleResult first[3];
  EXPECT_EQ(count_schedules([&] {
              first[0] = pricer.price(net, minus);
              first[1] = pricer.price(net, plus);
              first[2] = pricer.price(net, morton);
            }),
            3u);
  // Asked again, each recipe is served its own result.
  EXPECT_EQ(count_schedules([&] {
              expect_same_result(pricer.price(net, minus), first[0]);
              expect_same_result(pricer.price(net, plus), first[1]);
              expect_same_result(pricer.price(net, morton), first[2]);
            }),
            0u);
  // Row-major and Morton placement give different batches here.
  EXPECT_NE(first[0].makespan.value(), first[2].makespan.value());
}

}  // namespace
}  // namespace wavepim::mapping
