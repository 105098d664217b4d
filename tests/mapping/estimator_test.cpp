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
    const pim::ArithModel arith;
    SinkPricing pricing;
    pricing.model = &arith;
    CostSink minus(pricing, setup.num_groups());
    CostSink plus(pricing, setup.num_groups());
    for (const mesh::Face f : mesh::kAllFaces) {
      emit_flux_face(setup, f, /*boundary=*/false,
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
// The expansion the estimator ran before it generated batches: every
// transfer listed, in the order NetBatch indexes them.

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

/// The parameters of a NetBatch, as the oracle reads them.
struct BatchSpec {
  /// 0 for a staging batch over `intra`, else the fetched face sign.
  int normal_sign = 0;
  std::vector<CostSink::IntraDescriptor> intra;
  std::vector<CostSink::InterDescriptor> inter;
  std::uint64_t dim = 0;
  std::uint32_t slices = 0;
  std::uint32_t blocks_per_element = 0;
  std::uint64_t elements = 0;  ///< staging batches
  bool morton = false;

  [[nodiscard]] NetBatch batch() const {
    return normal_sign == 0
               ? NetBatch::staging(intra, elements, blocks_per_element)
               : NetBatch::fetch(inter, normal_sign, dim, slices,
                                 blocks_per_element, morton);
  }
};

std::vector<pim::Transfer> expand_inter_transfers(const BatchSpec& spec) {
  const std::uint64_t dim = spec.dim;
  const std::uint32_t spb = spec.slices;
  const std::uint32_t bpe = spec.blocks_per_element;
  const bool morton = spec.morton && (spb & (spb - 1)) == 0;
  auto local_of = [&](std::uint64_t x, std::uint64_t y, std::uint64_t z) {
    if (morton) {
      return oracle_morton3(x, y, z, oracle_log2(dim), oracle_log2(spb),
                            oracle_log2(dim));
    }
    return x + dim * (y + spb * z);
  };
  std::vector<pim::Transfer> transfers;
  for (const auto& d : spec.inter) {
    if (mesh::normal_sign(d.face) != spec.normal_sign) {
      continue;
    }
    const auto axis = mesh::index_of(mesh::axis_of(d.face));
    for (std::uint64_t z = 0; z < dim; ++z) {
      for (std::uint64_t y = 0; y < spb; ++y) {
        for (std::uint64_t x = 0; x < dim; ++x) {
          std::uint64_t c[3] = {x, y, z};
          const std::uint64_t limit = (axis == 1) ? spb : dim;
          std::uint64_t n = c[axis];
          if (spec.normal_sign < 0) {
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

std::vector<pim::Transfer> expand_intra_transfers(const BatchSpec& spec) {
  const std::uint32_t bpe = spec.blocks_per_element;
  std::vector<pim::Transfer> transfers;
  for (std::uint64_t e = 0; e < spec.elements; ++e) {
    for (const auto& d : spec.intra) {
      transfers.push_back(
          {.src_block = static_cast<std::uint32_t>(e * bpe + d.src_group),
           .dst_block = static_cast<std::uint32_t>(e * bpe + d.dst_group),
           .words = d.words});
    }
  }
  return transfers;
}

std::vector<pim::Transfer> expand(const BatchSpec& spec) {
  return spec.normal_sign == 0 ? expand_intra_transfers(spec)
                               : expand_inter_transfers(spec);
}

/// Fetch batches of both normal signs, Morton placement on and off, over
/// power-of-two windows and others, plus staging batches. Every face has
/// two descriptors, so a batch interleaves groups as real flux does.
std::vector<BatchSpec> sample_specs() {
  std::vector<BatchSpec> specs;
  BatchSpec fetch;
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
        fetch.slices = spb;
        fetch.normal_sign = sign;
        fetch.morton = morton;
        specs.push_back(fetch);
      }
    }
  }
  BatchSpec staging;
  staging.intra = {{.src_group = 0, .dst_group = 1, .words = 8},
                   {.src_group = 2, .dst_group = 0, .words = 5},
                   {.src_group = 1, .dst_group = 1, .words = 2}};
  staging.blocks_per_element = 3;
  staging.elements = 384;
  specs.push_back(staging);
  staging.intra.clear();
  specs.push_back(staging);  // the empty batch
  return specs;
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

TEST(NetBatch, GeneratesTheListedBatchAtEveryIndex) {
  for (const BatchSpec& spec : sample_specs()) {
    SCOPED_TRACE("sign " + std::to_string(spec.normal_sign) + ", spb " +
                 std::to_string(spec.slices) + ", morton " +
                 std::to_string(spec.morton));
    const std::vector<pim::Transfer> listed = expand(spec);
    const NetBatch batch = spec.batch();
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

TEST(PriceBatches, PricesEachBatchAsItsListedTransfers) {
  const std::vector<BatchSpec> specs = sample_specs();
  std::vector<NetBatch> batches;
  for (const BatchSpec& spec : specs) {
    batches.push_back(spec.batch());
  }
  for (const pim::NetBackendKind backend :
       {pim::NetBackendKind::Analytic, pim::NetBackendKind::Cycle}) {
    pim::ChipConfig chip = pim::chip_2gb();
    chip.net_backend = backend;
    const pim::Interconnect net(chip);
    std::vector<BatchRequest> requests;
    for (const NetBatch& batch : batches) {
      requests.push_back({&net, &batch});
    }
    const std::vector<pim::ScheduleResult> results = price_batches(requests);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t k = 0; k < specs.size(); ++k) {
      SCOPED_TRACE("batch " + std::to_string(k));
      // Only a Cycle chip's requests carry link statistics.
      expect_bit_identical(
          results[k], net.schedule(expand(specs[k]),
                                   backend == pim::NetBackendKind::Cycle));
    }
  }
}

TEST(PriceBatches, SharesAResultOnlyBetweenChipsItsBlocksFit) {
  // 1,000 elements of two blocks each: the batch's largest block id is
  // 1,999, far inside PIM-16GB.
  const CostSink::IntraDescriptor intra[] = {
      {.src_group = 0, .dst_group = 1, .words = 8}};
  const NetBatch batch = NetBatch::staging(intra, 1000, 2);
  ASSERT_EQ(batch.block_end(), 2000u);
  pim::ChipConfig big = pim::chip_16gb();
  big.net_backend = pim::NetBackendKind::Analytic;
  const pim::Interconnect big_net(big);

  // A chip whose block_limit ends just below that block is priced on its
  // own, and throws as it would alone...
  pim::ChipConfig limited = big;
  limited.block_limit = 1999;
  const pim::Interconnect short_net(limited);
  const BatchRequest too_small[] = {{&big_net, &batch}, {&short_net, &batch}};
  EXPECT_THROW((void)price_batches(too_small), PreconditionError);

  // ...while one that just holds it shares the big chip's schedule.
  limited.block_limit = 2000;
  const pim::Interconnect fitting_net(limited);
  const BatchRequest fitting[] = {{&big_net, &batch}, {&fitting_net, &batch}};
  std::vector<pim::ScheduleResult> results;
  EXPECT_EQ(count_schedules([&] { results = price_batches(fitting); }), 1u);
  expect_bit_identical(results[1], results[0]);
  expect_bit_identical(results[0], big_net.schedule(batch.view()));
}

// One fetch descriptor per face, 16 words each.
std::vector<CostSink::InterDescriptor> one_fetch_per_face() {
  std::vector<CostSink::InterDescriptor> inter;
  for (const mesh::Face f : mesh::kAllFaces) {
    inter.push_back({.face = f, .src_group = 0, .dst_group = 0, .words = 16});
  }
  return inter;
}

TEST(PriceBatches, PricesBatchesThatDifferInSignOrMortonSeparately) {
  // An 8 x 8 x 8 resident window (power-of-two, so Morton placement
  // applies).
  const std::vector<CostSink::InterDescriptor> inter = one_fetch_per_face();
  const NetBatch minus = NetBatch::fetch(inter, -1, 8, 8, 1, false);
  const NetBatch plus = NetBatch::fetch(inter, +1, 8, 8, 1, false);
  const NetBatch morton = NetBatch::fetch(inter, -1, 8, 8, 1, true);
  // Built again from only the minus-side descriptors: the same batch.
  std::vector<CostSink::InterDescriptor> minus_only;
  for (const auto& d : inter) {
    if (mesh::normal_sign(d.face) < 0) {
      minus_only.push_back(d);
    }
  }
  EXPECT_EQ(NetBatch::fetch(minus_only, -1, 8, 8, 1, false), minus);
  EXPECT_NE(plus, minus);
  EXPECT_NE(morton, minus);
  // Morton placement needs a power-of-two window; on a window of six
  // slices a Morton request builds the row-major batch.
  EXPECT_EQ(NetBatch::fetch(inter, -1, 8, 6, 1, true),
            NetBatch::fetch(inter, -1, 8, 6, 1, false));

  pim::ChipConfig chip = pim::chip_2gb();
  chip.net_backend = pim::NetBackendKind::Analytic;
  const pim::Interconnect net(chip);
  const BatchRequest requests[] = {
      {&net, &minus}, {&net, &plus}, {&net, &morton}};
  std::vector<pim::ScheduleResult> results;
  EXPECT_EQ(count_schedules([&] { results = price_batches(requests); }),
            3u);
  expect_bit_identical(results[0], net.schedule(minus.view()));
  expect_bit_identical(results[1], net.schedule(plus.view()));
  expect_bit_identical(results[2], net.schedule(morton.view()));
  // Row-major and Morton placement give different batches here.
  EXPECT_NE(results[0].makespan.value(), results[2].makespan.value());
}

TEST(PriceBatches, SchedulesARepeatedRequestOfOneCallOnce) {
  const std::vector<CostSink::InterDescriptor> inter = one_fetch_per_face();
  const NetBatch minus = NetBatch::fetch(inter, -1, 8, 8, 1, false);
  const NetBatch plus = NetBatch::fetch(inter, +1, 8, 8, 1, false);
  // Equal to minus, but a distinct object.
  const NetBatch minus_again = NetBatch::fetch(inter, -1, 8, 8, 1, false);

  pim::ChipConfig chip = pim::chip_2gb();
  chip.net_backend = pim::NetBackendKind::Analytic;
  const pim::Interconnect net(chip);
  const BatchRequest requests[] = {
      {&net, &minus}, {&net, &plus}, {&net, &minus_again}, {&net, &plus}};
  std::vector<pim::ScheduleResult> results;
  EXPECT_EQ(count_schedules([&] { results = price_batches(requests); }),
            2u);
  expect_bit_identical(results[2], results[0]);
  expect_bit_identical(results[3], results[1]);
  expect_bit_identical(results[0], net.schedule(minus.view()));
  expect_bit_identical(results[1], net.schedule(plus.view()));
}

TEST(PriceBatches, RethrowsTheErrorOfTheFirstFailingRequest) {
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
    const std::size_t range_at = range_first ? 4 : 9;
    const std::size_t words_at = range_first ? 9 : 4;
    std::vector<NetBatch> batches;
    for (std::uint32_t k = 0; k < 12; ++k) {
      const std::uint32_t words = k == words_at ? 0 : k + 1;
      const CostSink::IntraDescriptor intra[] = {
          {.src_group = 0, .dst_group = 1, .words = words}};
      batches.push_back(
          NetBatch::staging(intra, k == words_at ? 4000 : 1000, 2));
    }
    std::vector<BatchRequest> requests;
    for (const NetBatch& batch : batches) {
      requests.push_back({&big_net, &batch});
    }
    requests[range_at].net = &limited_net;

    try {
      (void)price_batches(requests);
      ADD_FAILURE() << "price_batches did not throw";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(range_first ? out_of_range
                                                       : no_words),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace wavepim::mapping
