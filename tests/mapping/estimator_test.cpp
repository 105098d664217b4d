#include "mapping/estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "mapping/element_program.h"
#include "mapping/program_cache.h"
#include "mapping/sinks.h"
#include "mesh/face.h"
#include "mesh/structured_mesh.h"
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

// --- Oracles ----------------------------------------------------------------
// The expansion the pricer ran before it generated batches from their
// recipes: every transfer listed, in the order RecipeBatch indexes them.

std::uint64_t oracle_morton3(std::uint64_t x, std::uint64_t y,
                             std::uint64_t z, std::uint32_t x_bits,
                             std::uint32_t y_bits, std::uint32_t z_bits) {
  std::uint64_t local = 0;
  std::uint32_t shift = 0;
  const std::uint32_t max_bits = std::max({x_bits, y_bits, z_bits});
  for (std::uint32_t bit = 0; bit < max_bits; ++bit) {
    if (bit < x_bits) {
      local |= ((x >> bit) & 1u) << shift++;
    }
    if (bit < y_bits) {
      local |= ((y >> bit) & 1u) << shift++;
    }
    if (bit < z_bits) {
      local |= ((z >> bit) & 1u) << shift++;
    }
  }
  return local;
}

std::uint32_t oracle_log2(std::uint64_t v) {
  std::uint32_t bits = 0;
  while ((1ull << bits) < v) {
    ++bits;
  }
  return bits;
}

std::vector<pim::Transfer> expand_inter_transfers(
    const BatchPricer::Recipe& recipe) {
  const std::uint64_t dim = recipe.dim;
  const std::uint32_t spb = recipe.slices_per_batch;
  const std::uint32_t bpe = recipe.blocks_per_element;
  const bool morton = recipe.morton && (spb & (spb - 1)) == 0;
  auto local_of = [&](std::uint64_t x, std::uint64_t y, std::uint64_t z) {
    if (morton) {
      return oracle_morton3(x, y, z, oracle_log2(dim), oracle_log2(spb),
                            oracle_log2(dim));
    }
    return x + dim * (y + spb * z);
  };
  std::vector<pim::Transfer> transfers;
  for (const auto& d : recipe.inter) {
    if (mesh::normal_sign(d.face) != recipe.normal_sign) {
      continue;
    }
    const auto axis = mesh::index_of(mesh::axis_of(d.face));
    for (std::uint64_t z = 0; z < dim; ++z) {
      for (std::uint64_t y = 0; y < spb; ++y) {
        for (std::uint64_t x = 0; x < dim; ++x) {
          std::uint64_t c[3] = {x, y, z};
          const std::uint64_t limit = (axis == 1) ? spb : dim;
          std::uint64_t n = c[axis];
          if (recipe.normal_sign < 0) {
            n = (n == 0) ? limit - 1 : n - 1;
          } else {
            n = (n + 1 == limit) ? 0 : n + 1;
          }
          std::uint64_t nc[3] = {x, y, z};
          nc[axis] = n;
          const std::uint64_t my_local = local_of(x, y, z);
          const std::uint64_t nb_local = local_of(nc[0], nc[1], nc[2]);
          transfers.push_back(
              {.src_block =
                   static_cast<std::uint32_t>(nb_local * bpe + d.src_group),
               .dst_block =
                   static_cast<std::uint32_t>(my_local * bpe + d.dst_group),
               .words = d.words});
        }
      }
    }
  }
  return transfers;
}

std::vector<pim::Transfer> expand_intra_transfers(
    const BatchPricer::Recipe& recipe) {
  const std::uint32_t bpe = recipe.blocks_per_element;
  std::vector<pim::Transfer> transfers;
  for (std::uint64_t e = 0; e < recipe.elements_per_batch; ++e) {
    for (const auto& d : recipe.intra) {
      transfers.push_back(
          {.src_block = static_cast<std::uint32_t>(e * bpe + d.src_group),
           .dst_block = static_cast<std::uint32_t>(e * bpe + d.dst_group),
           .words = d.words});
    }
  }
  return transfers;
}

std::vector<pim::Transfer> expand(const BatchPricer::Recipe& recipe) {
  return recipe.normal_sign == 0 ? expand_intra_transfers(recipe)
                                 : expand_inter_transfers(recipe);
}

/// Fetch recipes of both normal signs, Morton placement on and off, over
/// power-of-two windows and others, plus staging recipes. Every face has
/// two descriptors, so a batch interleaves groups as real flux does.
std::vector<BatchPricer::Recipe> sample_recipes() {
  std::vector<BatchPricer::Recipe> recipes;
  BatchPricer::Recipe fetch;
  std::uint32_t words = 3;
  for (const mesh::Face f : mesh::kAllFaces) {
    fetch.inter.push_back(
        {.face = f, .src_group = 0, .dst_group = 2, .words = words++});
    fetch.inter.push_back(
        {.face = f, .src_group = 1, .dst_group = 1, .words = words++});
  }
  fetch.dim = 8;
  fetch.blocks_per_element = 3;
  for (const std::uint32_t spb : {8u, 6u, 1u}) {
    for (const int sign : {-1, +1}) {
      for (const bool morton : {false, true}) {
        fetch.slices_per_batch = spb;
        fetch.elements_per_batch = fetch.dim * spb * fetch.dim;
        fetch.normal_sign = sign;
        fetch.morton = morton;
        recipes.push_back(fetch);
      }
    }
  }
  BatchPricer::Recipe staging;
  staging.intra = {{.src_group = 0, .dst_group = 1, .words = 8},
                   {.src_group = 2, .dst_group = 0, .words = 5},
                   {.src_group = 1, .dst_group = 1, .words = 2}};
  staging.dim = 8;
  staging.slices_per_batch = 6;
  staging.blocks_per_element = 3;
  staging.elements_per_batch = 384;
  recipes.push_back(staging);
  staging.intra.clear();
  recipes.push_back(staging);  // the empty batch
  return recipes;
}

/// Every field of two schedule results, bit for bit.
void expect_bit_identical(const pim::ScheduleResult& got,
                          const pim::ScheduleResult& want) {
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(got.makespan.value()), bits(want.makespan.value()));
  EXPECT_EQ(bits(got.serial_sum.value()), bits(want.serial_sum.value()));
  EXPECT_EQ(bits(got.energy.value()), bits(want.energy.value()));
  EXPECT_EQ(got.links.links_used, want.links.links_used);
  EXPECT_EQ(bits(got.links.max_utilization),
            bits(want.links.max_utilization));
  EXPECT_EQ(bits(got.links.mean_utilization),
            bits(want.links.mean_utilization));
  EXPECT_EQ(bits(got.links.stall_time.value()),
            bits(want.links.stall_time.value()));
  EXPECT_EQ(got.links.peak_queue, want.links.peak_queue);
}

TEST(RecipeBatch, GeneratesTheListedBatchAtEveryIndex) {
  for (const BatchPricer::Recipe& recipe : sample_recipes()) {
    SCOPED_TRACE("sign " + std::to_string(recipe.normal_sign) + ", spb " +
                 std::to_string(recipe.slices_per_batch) + ", morton " +
                 std::to_string(recipe.morton));
    const std::vector<pim::Transfer> listed = expand(recipe);
    const RecipeBatch batch(recipe);
    const pim::TransferView view = batch.view();
    ASSERT_EQ(batch.size(), listed.size());
    ASSERT_EQ(view.size(), listed.size());
    std::size_t mismatches = 0;
    std::uint64_t block_end = 0;
    for (std::size_t i = 0; i < listed.size(); ++i) {
      const pim::Transfer t = view[i];
      mismatches += t.src_block != listed[i].src_block ||
                    t.dst_block != listed[i].dst_block ||
                    t.words != listed[i].words;
      block_end = std::max<std::uint64_t>(
          block_end,
          std::max(listed[i].src_block, listed[i].dst_block) + 1ull);
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(batch.block_end(), block_end);
  }
}

TEST(BatchPricer, PricesEachBatchAsItsListedTransfers) {
  const std::vector<BatchPricer::Recipe> recipes = sample_recipes();
  for (const pim::NetBackendKind backend :
       {pim::NetBackendKind::Analytic, pim::NetBackendKind::Cycle}) {
    pim::ChipConfig chip = pim::chip_2gb();
    chip.net_backend = backend;
    const pim::Interconnect net(chip);
    std::vector<BatchPricer::Request> requests;
    for (const BatchPricer::Recipe& recipe : recipes) {
      requests.push_back({&net, &recipe});
    }
    BatchPricer pricer;
    const std::vector<pim::ScheduleResult> results =
        pricer.price_all(requests);
    ASSERT_EQ(results.size(), recipes.size());
    for (std::size_t k = 0; k < recipes.size(); ++k) {
      SCOPED_TRACE("recipe " + std::to_string(k));
      // Only a Cycle chip's requests carry link statistics.
      expect_bit_identical(
          results[k], net.schedule(expand(recipes[k]),
                                   backend == pim::NetBackendKind::Cycle));
    }
  }
}

/// Prices one request with `pricer`.
pim::ScheduleResult price(BatchPricer& pricer, const pim::Interconnect& net,
                          const BatchPricer::Recipe& recipe) {
  const BatchPricer::Request request{&net, &recipe};
  return pricer.price_all({&request, 1}).front();
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
              first = price(pricer, pim::Interconnect(big), recipe);
            }),
            1u);

  // A chip whose block_limit ends just below that block is priced
  // afresh, and throws as it would without the pricer...
  pim::ChipConfig limited = big;
  limited.block_limit = 1999;
  EXPECT_THROW((void)price(pricer, pim::Interconnect(limited), recipe),
               PreconditionError);

  // ...while one that just holds it is served the stored result.
  limited.block_limit = 2000;
  pim::ScheduleResult served;
  EXPECT_EQ(count_schedules([&] {
              served = price(pricer, pim::Interconnect(limited), recipe);
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
              first[0] = price(pricer, net, minus);
              first[1] = price(pricer, net, plus);
              first[2] = price(pricer, net, morton);
            }),
            3u);
  // Asked again, each recipe is served its own result.
  EXPECT_EQ(count_schedules([&] {
              expect_same_result(price(pricer, net, minus), first[0]);
              expect_same_result(price(pricer, net, plus), first[1]);
              expect_same_result(price(pricer, net, morton), first[2]);
            }),
            0u);
  // Row-major and Morton placement give different batches here.
  EXPECT_NE(first[0].makespan.value(), first[2].makespan.value());
}

TEST(BatchPricer, SchedulesARepeatedRequestOfOneCallOnce) {
  BatchPricer::Recipe minus;
  for (const mesh::Face f : mesh::kAllFaces) {
    minus.inter.push_back(
        {.face = f, .src_group = 0, .dst_group = 0, .words = 16});
  }
  minus.normal_sign = -1;
  minus.dim = 8;
  minus.slices_per_batch = 8;
  minus.blocks_per_element = 1;
  BatchPricer::Recipe plus = minus;
  plus.normal_sign = +1;

  pim::ChipConfig chip = pim::chip_2gb();
  chip.net_backend = pim::NetBackendKind::Analytic;
  const pim::Interconnect net(chip);
  const BatchPricer::Request requests[] = {
      {&net, &minus}, {&net, &plus}, {&net, &minus}, {&net, &plus}};
  BatchPricer pricer;
  std::vector<pim::ScheduleResult> results;
  EXPECT_EQ(count_schedules([&] { results = pricer.price_all(requests); }),
            2u);
  expect_bit_identical(results[2], results[0]);
  expect_bit_identical(results[3], results[1]);
  expect_bit_identical(results[0], net.schedule(expand(minus)));
  expect_bit_identical(results[1], net.schedule(expand(plus)));
}

TEST(BatchPricer, RethrowsTheErrorOfTheFirstFailingRequest) {
  // Twelve distinct staging batches, enough to fan out on the pool. Two
  // of them fail: one on a chip whose block_limit ends below the batch's
  // last block, one because its transfers move no words. The later
  // failure is also the largest batch, so it is priced first; the error
  // rethrown is still the earlier request's, as a request-by-request
  // pass would throw it.
  pim::ChipConfig big = pim::chip_16gb();
  big.net_backend = pim::NetBackendKind::Analytic;
  pim::ChipConfig limited = big;
  limited.block_limit = 1999;
  const pim::Interconnect big_net(big);
  const pim::Interconnect limited_net(limited);
  const std::string out_of_range = "block id out of range";
  const std::string no_words = "at least one word";

  for (const bool range_first : {true, false}) {
    SCOPED_TRACE(range_first ? "range failure first" : "words failure first");
    std::vector<BatchPricer::Recipe> recipes(12);
    std::vector<BatchPricer::Request> requests;
    for (std::uint32_t k = 0; k < recipes.size(); ++k) {
      recipes[k].intra = {{.src_group = 0, .dst_group = 1, .words = k + 1}};
      recipes[k].blocks_per_element = 2;
      recipes[k].elements_per_batch = 1000;
      requests.push_back({&big_net, &recipes[k]});
    }
    const std::size_t range_at = range_first ? 4 : 9;
    const std::size_t words_at = range_first ? 9 : 4;
    requests[range_at].net = &limited_net;
    recipes[words_at].intra[0].words = 0;
    recipes[words_at].elements_per_batch = 4000;

    BatchPricer pricer;
    try {
      (void)pricer.price_all(requests);
      ADD_FAILURE() << "price_all did not throw";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(range_first ? out_of_range
                                                       : no_words),
                std::string::npos)
          << e.what();
    }

    // The requests before the failure were stored; the ones after it
    // were not.
    for (std::size_t k = 0; k < recipes.size(); ++k) {
      if (k == range_at || k == words_at) {
        continue;
      }
      const BatchPricer::Request request{&big_net, &recipes[k]};
      EXPECT_EQ(count_schedules([&] {
                  (void)pricer.price_all({&request, 1});
                }),
                k < 4 ? 0u : 1u)
          << "request " << k;
    }
  }
}

}  // namespace
}  // namespace wavepim::mapping
