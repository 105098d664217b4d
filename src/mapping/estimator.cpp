#include "mapping/estimator.h"

#include <algorithm>

#include "common/error.h"
#include "dg/rk.h"
#include "mapping/element_program.h"
#include "mapping/program_cache.h"
#include "mapping/residency.h"
#include "mapping/sinks.h"
#include "mesh/structured_mesh.h"
#include "pim/hbm.h"
#include "pim/host.h"
#include "trace/trace.h"

namespace wavepim::mapping {

using mesh::Face;

namespace {

/// Mixed-radix Morton interleave: round-robins one bit from each axis
/// (skipping exhausted axes), producing a bijection onto
/// [0, dim * spb * dim) for power-of-two extents.
std::uint64_t morton3(std::uint64_t x, std::uint64_t y, std::uint64_t z,
                      std::uint32_t x_bits, std::uint32_t y_bits,
                      std::uint32_t z_bits) {
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

std::uint32_t log2_exact(std::uint64_t v) {
  std::uint32_t bits = 0;
  while ((1ull << bits) < v) {
    ++bits;
  }
  return bits;
}

/// Elements of the first batch (slices [0, spb)) with their batch-local
/// index; row-major (x fastest) by default, Morton order when requested
/// and the window geometry is power-of-two.
struct BatchIndexer {
  std::uint64_t dim;
  std::uint32_t spb;
  bool morton = false;

  [[nodiscard]] bool morton_applicable() const {
    return (spb & (spb - 1)) == 0;
  }

  [[nodiscard]] std::uint64_t local_of(std::uint64_t x, std::uint64_t y,
                                       std::uint64_t z) const {
    if (morton && morton_applicable()) {
      return morton3(x, y, z, log2_exact(dim), log2_exact(spb),
                     log2_exact(dim));
    }
    return x + dim * (y + spb * z);
  }
};

/// Expands the representative element's inter-element transfer
/// descriptors of the recipe's normal sign over every element of the
/// batch (periodic wrap in x/z; y faces that leave the batch are staged
/// through HBM per Fig. 7 and do not ride the on-chip network).
std::vector<pim::Transfer> expand_inter_transfers(
    const BatchPricer::Recipe& recipe) {
  const std::uint64_t dim = recipe.dim;
  const std::uint32_t spb = recipe.slices_per_batch;
  const std::uint32_t bpe = recipe.blocks_per_element;
  const BatchIndexer indexer{dim, spb, recipe.morton};

  const auto faces = std::count_if(
      recipe.inter.begin(), recipe.inter.end(), [&](const auto& d) {
        return mesh::normal_sign(d.face) == recipe.normal_sign;
      });
  std::vector<pim::Transfer> transfers;
  transfers.reserve(static_cast<std::size_t>(faces) * dim * spb * dim);
  for (const auto& d : recipe.inter) {
    if (mesh::normal_sign(d.face) != recipe.normal_sign) {
      continue;
    }
    const auto axis = mesh::index_of(mesh::axis_of(d.face));
    for (std::uint64_t z = 0; z < dim; ++z) {
      for (std::uint64_t y = 0; y < spb; ++y) {
        for (std::uint64_t x = 0; x < dim; ++x) {
          std::uint64_t c[3] = {x, y, z};
          // Neighbour coordinate with periodic wrap; y wraps only within
          // the resident slice window.
          const std::uint64_t limit = (axis == 1) ? spb : dim;
          std::uint64_t n = c[axis];
          if (recipe.normal_sign < 0) {
            n = (n == 0) ? limit - 1 : n - 1;
          } else {
            n = (n + 1 == limit) ? 0 : n + 1;
          }
          std::uint64_t nc[3] = {x, y, z};
          nc[axis] = n;
          const std::uint64_t my_local = indexer.local_of(x, y, z);
          const std::uint64_t nb_local = indexer.local_of(nc[0], nc[1], nc[2]);
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

/// Expands intra-element transfer descriptors over the batch.
std::vector<pim::Transfer> expand_intra_transfers(
    const BatchPricer::Recipe& recipe) {
  const std::uint32_t bpe = recipe.blocks_per_element;
  std::vector<pim::Transfer> transfers;
  transfers.reserve(recipe.intra.size() * recipe.elements_per_batch);
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

}  // namespace

pim::ScheduleResult BatchPricer::price(const pim::Interconnect& net,
                                       const Recipe& recipe) {
  const Fabric fabric{net.topology(), net.config().htree_arity,
                      net.backend_kind(), net.link()};
  const std::uint32_t blocks = net.config().num_blocks();
  for (const Entry& entry : entries_) {
    if (entry.block_end <= blocks && entry.fabric == fabric &&
        entry.recipe == recipe) {
      return entry.result;
    }
  }
  const std::vector<pim::Transfer> transfers =
      recipe.normal_sign == 0 ? expand_intra_transfers(recipe)
                              : expand_inter_transfers(recipe);
  std::uint64_t block_end = 0;
  for (const pim::Transfer& t : transfers) {
    block_end = std::max<std::uint64_t>(
        block_end, std::max(t.src_block, t.dst_block) + 1ull);
  }
  const pim::ScheduleResult result = net.schedule(transfers);
  entries_.push_back({recipe, fabric, block_end, result});
  return result;
}

Estimator::Estimator(Problem problem, pim::ChipConfig chip, Options options)
    : problem_(problem), chip_(std::move(chip)), options_(options) {
  config_ = options_.force_expansion
                ? config_for_mode(problem_, chip_, *options_.force_expansion)
                : choose_config(problem_, chip_);
}

Estimator::Estimator(Problem problem, pim::ChipConfig chip, Options options,
                     BatchPricer& pricer)
    : Estimator(std::move(problem), std::move(chip), options) {
  pricer_ = &pricer;
}

const StepEstimate& Estimator::estimate() const {
  if (!cached_) {
    trace::Span span("map.estimate");
    cached_ = compute();
  }
  return *cached_;
}

pim::OpCost Estimator::run_cost(std::uint64_t steps) const {
  const auto& e = estimate();
  return {e.step_time * static_cast<double>(steps),
          e.step_energy * static_cast<double>(steps)};
}

StepEstimate Estimator::compute() const {
  const double h = 1.0 / static_cast<double>(1ull << problem_.refinement_level);
  const ElementSetup setup(problem_, config_.expansion, h);
  const std::uint32_t groups = setup.num_groups();

  const pim::ArithModel arith;
  const pim::Interconnect net(chip_);
  const pim::HbmModel hbm;
  const pim::HostModel host(options_.host_special_ops_per_s);

  SinkPricing pricing;
  pricing.model = &arith;
  {
    // Alg. 1 unit cost: index read + content read + destination write plus
    // the switch leg from a same-quadrant LUT block.
    const pim::Transfer hop{.src_block = 0, .dst_block = 5, .words = 1};
    pricing.lut_unit = pricing.rows_read(2) + pricing.rows_written(1);
    pricing.lut_unit +=
        {net.isolated_latency(hop), net.transfer_energy(hop)};
  }

  // --- Cost the representative element's kernels -------------------------
  // Every element of the (uniform, all-interior) representative class
  // runs the same streams, so the per-class cached programs are costed
  // once instead of re-emitting the kernels per query. Replay issues the
  // identical sink-call sequence as direct emission, so the tallies match
  // bit-for-bit.
  ProgramCache cache(setup);
  const std::uint32_t cls = 0;

  CostSink vol(pricing, groups);
  replay(cache.arena(), cache.volume(cls), vol);

  CostSink flux_minus(pricing, groups);
  CostSink flux_plus(pricing, groups);
  for (Face f : mesh::kAllFaces) {
    replay(cache.arena(), cache.flux(cls, f),
           mesh::normal_sign(f) < 0 ? flux_minus : flux_plus);
  }

  CostSink integ(pricing, groups);
  const ProgramCache::IntegrationProgram& integ_program =
      cache.integration(/*stage=*/1, /*dt=*/1.0e-3f);
  replay(integ_program.arena, integ_program.stream, integ);

  // --- Interconnect schedules over one batch ------------------------------
  BatchPricer own_pricer;
  BatchPricer& pricer = pricer_ != nullptr ? *pricer_ : own_pricer;
  BatchPricer::Recipe recipe;
  recipe.dim = 1ull << problem_.refinement_level;
  recipe.slices_per_batch = config_.slices_per_batch;
  recipe.blocks_per_element = blocks_per_element(config_.expansion);
  recipe.elements_per_batch = config_.elements_per_batch;
  recipe.morton = options_.morton_placement;
  auto staging = [&](const CostSink& sink) {
    recipe.normal_sign = 0;
    recipe.intra = sink.intra();
    recipe.inter.clear();
    return pricer.price(net, recipe);
  };
  auto fetch = [&](const CostSink& sink, int normal_sign) {
    recipe.normal_sign = normal_sign;
    recipe.intra.clear();
    recipe.inter = sink.inter();
    return pricer.price(net, recipe);
  };
  // Both face signs usually stage the same intra-element transfers; the
  // pricer schedules that batch once.
  const auto vol_staging = staging(vol);
  const auto flux_stage_minus = staging(flux_minus);
  const auto flux_stage_plus = staging(flux_plus);
  const auto fetch_minus = fetch(flux_minus, -1);
  const auto fetch_plus = fetch(flux_plus, +1);

  // --- Segments of one RK stage (one batch) -------------------------------
  StepEstimate est;
  est.config = config_;
  est.segments.volume = vol_staging.makespan + vol.max_group_time();
  est.segments.fetch_minus = fetch_minus.makespan;
  est.segments.fetch_plus = fetch_plus.makespan;
  est.segments.compute_minus =
      flux_stage_minus.makespan + flux_minus.max_group_time();
  est.segments.compute_plus =
      flux_stage_plus.makespan + flux_plus.max_group_time();
  est.segments.integration = integ.max_group_time();

  const std::uint64_t lut_per_element =
      flux_minus.lut_fetches() + flux_plus.lut_fetches();
  est.segments.host_preprocess = host.special_ops_time(
      lut_per_element * config_.elements_per_batch);

  est.stage_schedule = schedule_stage_pipelined(est.segments);
  est.stage_schedule_serial = schedule_stage_serial(est.segments);

  // --- Whole time step -----------------------------------------------------
  const double stages = dg::Lsrk54::kNumStages;
  const double batches = config_.num_batches;
  const Seconds stage_time = options_.pipelined ? est.stage_schedule.total
                                                : est.stage_schedule_serial.total;

  // Batching traffic (Figs. 6-7): counted off the same Fig. 7 schedule
  // the functional simulator executes — count_staging() over the built
  // step list is the single source of slice load/store totals, so the
  // analytic number cannot drift from the executed one.
  est.hbm_bytes_per_step = 0;
  if (config_.batched) {
    const Bytes state = element_state_bytes(problem_.kind, problem_.n1d);
    const std::uint64_t dim = 1ull << problem_.refinement_level;
    const Bytes slice_bytes = state * dim * dim;
    const BatchSchedule schedule =
        build_flux_batch_schedule(problem_, config_, /*periodic=*/true);
    const StagingCounts counts = count_staging(schedule, slice_bytes);
    est.hbm_bytes_per_step = static_cast<Bytes>(stages) * counts.bytes;
  }
  const auto hbm_cost = hbm.transfer_cost(est.hbm_bytes_per_step);
  est.hbm_time_per_step = hbm_cost.time;
  est.hbm_energy = hbm_cost.energy;

  est.step_time = stage_time * (stages * batches) + est.hbm_time_per_step;
  est.step_time_unpipelined =
      est.stage_schedule_serial.total * (stages * batches) +
      est.hbm_time_per_step;

  // --- Paper-methodology throughput estimate --------------------------------
  {
    const auto ops = dg::count_problem_ops(problem_.kind,
                                           problem_.num_elements(),
                                           problem_.n1d);
    const double stage_flops =
        static_cast<double>(ops.total().flops);
    const double active_lanes =
        static_cast<double>(config_.elements_per_batch) *
        blocks_per_element(config_.expansion) *
        static_cast<double>(problem_.nodes_per_element());
    const double utilization = std::min(
        1.0, active_lanes / static_cast<double>(chip_.parallel_lanes()));
    const double peak = pim::peak_throughput_flops(chip_);
    est.step_time_peak_method =
        Seconds(stages * stage_flops / (peak * utilization)) +
        est.hbm_time_per_step;
  }

  // --- Energy ---------------------------------------------------------------
  const double elems = static_cast<double>(problem_.num_elements());
  est.dynamic_energy =
      (vol.element_energy() + flux_minus.element_energy() +
       flux_plus.element_energy() + integ.element_energy()) *
      (elems * stages);
  est.network_energy = (vol_staging.energy + flux_stage_minus.energy +
                        flux_stage_plus.energy + fetch_minus.energy +
                        fetch_plus.energy) *
                       (batches * stages);
  est.static_energy =
      energy_at(pim::chip_static_power_w(chip_), est.step_time);
  est.host_energy = energy_at(host.power_w(), est.step_time);
  est.step_energy = est.dynamic_energy + est.network_energy +
                    est.static_energy + est.host_energy + est.hbm_energy;

  // --- Fig. 14 split ---------------------------------------------------------
  est.flux_intra_element =
      est.segments.compute_minus + est.segments.compute_plus;
  est.flux_inter_element = est.segments.fetch_minus + est.segments.fetch_plus;

  return est;
}

}  // namespace wavepim::mapping
