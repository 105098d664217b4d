#include "mapping/estimator.h"

#include <algorithm>
#include <array>
#include <bit>
#include <exception>

#include "common/error.h"
#include "common/parallel.h"
#include "dg/rk.h"
#include "mapping/element_program.h"
#include "mapping/residency.h"
#include "mapping/sinks.h"
#include "mesh/structured_mesh.h"
#include "pim/hbm.h"
#include "pim/host.h"
#include "trace/trace.h"

namespace wavepim::mapping {

using mesh::Face;

namespace {

/// Host sqrt/inverse throughput the estimator prices the host
/// pre-processing at (vectorised, LUT-reusing rate).
constexpr double kHostSpecialOpsPerS = 1.0e10;

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

}  // namespace

RecipeBatch::RecipeBatch(const BatchPricer::Recipe& recipe)
    : fetch_(recipe.normal_sign != 0),
      normal_sign_(recipe.normal_sign),
      bpe_(recipe.blocks_per_element) {
  std::uint32_t max_group = 0;
  auto add = [&](std::uint32_t src, std::uint32_t dst, std::uint32_t words,
                 std::uint32_t axis) {
    descriptors_.push_back({src, dst, words, axis});
    max_group = std::max({max_group, src, dst});
  };
  std::uint64_t elements = 0;
  if (fetch_) {
    WAVEPIM_REQUIRE(std::has_single_bit(recipe.dim),
                    "a fetch batch's grid edge must be a power of two");
    for (const auto& d : recipe.inter) {
      if (mesh::normal_sign(d.face) == normal_sign_) {
        add(d.src_group, d.dst_group, d.words,
            static_cast<std::uint32_t>(mesh::index_of(mesh::axis_of(d.face))));
      }
    }
    dim_ = static_cast<std::uint32_t>(recipe.dim);
    dim_bits_ = log2_exact(dim_);
    spb_ = recipe.slices_per_batch;
    spb_bits_ = log2_exact(spb_);
    // Morton placement needs a power-of-two window.
    morton_ = recipe.morton && (spb_ & (spb_ - 1)) == 0;
    elements = recipe.dim * spb_ * recipe.dim;
  } else {
    for (const auto& d : recipe.intra) {
      add(d.src_group, d.dst_group, d.words, 0);
    }
    elements = recipe.elements_per_batch;
  }
  size_ = static_cast<std::size_t>(descriptors_.size() * elements);
  if (size_ != 0) {
    // Every element of the batch is some transfer's destination and some
    // transfer's source (a neighbour map is a bijection of the window),
    // and both placements are monotone in each coordinate, so the far
    // corner holds the largest element index.
    const std::uint64_t last =
        fetch_ ? local_of(dim_ - 1, spb_ - 1, dim_ - 1) : elements - 1;
    block_end_ = last * bpe_ + max_group + 1;
  }
}

pim::TransferView RecipeBatch::view() const {
  return {size_, this, fetch_ ? &fetch_transfer : &staging_transfer};
}

std::uint64_t RecipeBatch::local_of(std::uint32_t x, std::uint32_t y,
                                    std::uint32_t z) const {
  if (morton_) {
    return morton3(x, y, z, dim_bits_, spb_bits_, dim_bits_);
  }
  return x + std::uint64_t{dim_} * (y + std::uint64_t{spb_} * z);
}

pim::Transfer RecipeBatch::staging_transfer(const void* self,
                                            std::size_t i) {
  const auto& batch = *static_cast<const RecipeBatch*>(self);
  const std::size_t per_element = batch.descriptors_.size();
  const std::uint64_t e = i / per_element;
  const Descriptor& d = batch.descriptors_[i % per_element];
  return {.src_block = static_cast<std::uint32_t>(e * batch.bpe_ + d.src_group),
          .dst_block = static_cast<std::uint32_t>(e * batch.bpe_ + d.dst_group),
          .words = d.words};
}

/// Transfer `i` of a face-neighbour fetch: descriptor d pulls element
/// (x, y, z)'s face data from its neighbour across d's face, with
/// periodic wrap in x and z. y wraps within the resident slice window:
/// y faces that leave the batch are staged through HBM per Fig. 7 and do
/// not ride the on-chip network.
pim::Transfer RecipeBatch::fetch_transfer(const void* self, std::size_t i) {
  const auto& batch = *static_cast<const RecipeBatch*>(self);
  const std::uint32_t dim = batch.dim_;
  const std::uint32_t spb = batch.spb_;
  std::uint32_t c[3];
  c[0] = static_cast<std::uint32_t>(i) & (dim - 1);
  const auto rest = static_cast<std::uint32_t>(i >> batch.dim_bits_);
  c[1] = rest % spb;
  const std::uint32_t zk = rest / spb;
  c[2] = zk & (dim - 1);
  const Descriptor& d = batch.descriptors_[zk >> batch.dim_bits_];

  std::uint32_t nc[3] = {c[0], c[1], c[2]};
  const std::uint32_t limit = d.axis == 1 ? spb : dim;
  std::uint32_t& n = nc[d.axis];
  if (batch.normal_sign_ < 0) {
    n = (n == 0) ? limit - 1 : n - 1;
  } else {
    n = (n + 1 == limit) ? 0 : n + 1;
  }
  const std::uint64_t my_local = batch.local_of(c[0], c[1], c[2]);
  const std::uint64_t nb_local = batch.local_of(nc[0], nc[1], nc[2]);
  return {.src_block = static_cast<std::uint32_t>(nb_local * batch.bpe_ +
                                                  d.src_group),
          .dst_block = static_cast<std::uint32_t>(my_local * batch.bpe_ +
                                                  d.dst_group),
          .words = d.words};
}

std::vector<pim::ScheduleResult> BatchPricer::price_all(
    std::span<const Request> requests) {
  const std::size_t n = requests.size();
  std::vector<pim::ScheduleResult> results(n);
  std::vector<Fabric> fabrics;
  std::vector<RecipeBatch> batches;
  fabrics.reserve(n);
  batches.reserve(n);
  for (const Request& request : requests) {
    const pim::Interconnect& net = *request.net;
    // The kind's one reader: link statistics only feed the net.link.*
    // trace counters here.
    fabrics.push_back(
        {net.topology(), net.config().htree_arity,
         net.config().net_backend == pim::NetBackendKind::Cycle, net.link()});
    batches.emplace_back(*request.recipe);
  }
  auto fits = [&](std::size_t request, std::uint64_t block_end) {
    return block_end <= requests[request].net->config().num_blocks();
  };

  // Each request is served by a stored entry, by an earlier request of
  // this call that prices the same batch and fits both chips, or else
  // prices its own batch (`owner[j] == j`).
  constexpr std::size_t kStored = static_cast<std::size_t>(-1);
  std::vector<std::size_t> owner(n);
  std::vector<std::size_t> misses;
  for (std::size_t j = 0; j < n; ++j) {
    const Recipe& recipe = *requests[j].recipe;
    const std::uint64_t block_end = batches[j].block_end();
    owner[j] = j;
    for (const Entry& entry : entries_) {
      if (fits(j, entry.block_end) && entry.fabric == fabrics[j] &&
          entry.recipe == recipe) {
        results[j] = entry.result;
        owner[j] = kStored;
        break;
      }
    }
    for (std::size_t k = 0; owner[j] == j && k < misses.size(); ++k) {
      const std::size_t m = misses[k];
      if (fits(j, block_end) && fits(m, block_end) &&
          fabrics[m] == fabrics[j] && *requests[m].recipe == recipe) {
        owner[j] = m;
      }
    }
    if (owner[j] == j) {
      misses.push_back(j);
    }
  }

  // Price the misses largest first: the pool claims indices in increasing
  // order, so the long batches start first (a longest-processing-time
  // list schedule over the workers).
  // Each keeps its own exception: parallel_for would rethrow whichever
  // it saw first, which depends on the worker count and timing.
  std::vector<std::size_t> by_size = misses;
  std::sort(by_size.begin(), by_size.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t size_a = batches[a].size();
    const std::size_t size_b = batches[b].size();
    return size_a != size_b ? size_a > size_b : a < b;
  });
  std::vector<std::exception_ptr> errors(n);
  parallel_for(by_size.size(), [&](std::size_t k) {
    const std::size_t j = by_size[k];
    try {
      results[j] = requests[j].net->schedule(batches[j].view(),
                                             fabrics[j].link_stats);
    } catch (...) {
      errors[j] = std::current_exception();
    }
  });

  // Store the new entries in request order. A request-by-request pass
  // stops at the first request that throws, so the entries before it are
  // stored and its exception is rethrown.
  for (const std::size_t m : misses) {
    if (errors[m]) {
      std::rethrow_exception(errors[m]);
    }
    entries_.push_back({*requests[m].recipe, fabrics[m],
                        batches[m].block_end(), results[m]});
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (owner[j] != kStored && owner[j] != j) {
      results[j] = results[owner[j]];
    }
  }
  return results;
}

Estimator::Estimator(Problem problem, pim::ChipConfig chip, Options options)
    : problem_(problem), chip_(std::move(chip)), options_(options) {
  config_ = options_.force_expansion
                ? config_for_mode(problem_, chip_, *options_.force_expansion)
                : choose_config(problem_, chip_);
}

struct Estimator::Plan {
  pim::ArithModel arith;  ///< the sinks price through it
  pim::Interconnect net;
  SinkPricing pricing;
  CostSink vol;
  CostSink flux_minus;
  CostSink flux_plus;
  CostSink integ;
  /// Volume staging, flux staging of each face sign, then the fetch of
  /// each face sign.
  std::array<BatchPricer::Recipe, kBatches> recipes;

  Plan(const pim::ChipConfig& chip, std::uint32_t groups)
      : net(chip),
        pricing(SinkPricing::make(arith, net)),
        vol(pricing, groups),
        flux_minus(pricing, groups),
        flux_plus(pricing, groups),
        integ(pricing, groups) {}
};

const StepEstimate& Estimator::estimate() const {
  if (!cached_) {
    BatchPricer pricer;
    estimate_all({this, 1}, pricer);
  }
  return *cached_;
}

void Estimator::estimate_all(std::span<const Estimator> estimators,
                             BatchPricer& pricer) {
  std::vector<const Estimator*> pending;
  std::vector<std::unique_ptr<Plan>> plans;
  std::vector<BatchPricer::Request> requests;
  for (const Estimator& estimator : estimators) {
    if (estimator.cached_) {
      continue;
    }
    pending.push_back(&estimator);
    plans.push_back(estimator.plan());
    for (const BatchPricer::Recipe& recipe : plans.back()->recipes) {
      requests.push_back({&plans.back()->net, &recipe});
    }
  }
  const std::vector<pim::ScheduleResult> results = pricer.price_all(requests);
  for (std::size_t k = 0; k < pending.size(); ++k) {
    pending[k]->cached_ = pending[k]->finish(
        *plans[k],
        std::span(results).subspan(k * kBatches).first<kBatches>());
  }
}

pim::OpCost Estimator::run_cost(std::uint64_t steps) const {
  const auto& e = estimate();
  return {e.step_time * static_cast<double>(steps),
          e.step_energy * static_cast<double>(steps)};
}

std::unique_ptr<Estimator::Plan> Estimator::plan() const {
  trace::Span span("map.estimate");
  const double h = 1.0 / static_cast<double>(1ull << problem_.refinement_level);
  const ElementSetup setup(problem_, config_.expansion, h);
  auto plan = std::make_unique<Plan>(chip_, setup.num_groups());

  // --- Cost the representative element's kernels -------------------------
  // Every element of the (uniform, all-interior) representative class
  // runs the same streams, so one element's emission, tallied once,
  // prices them all.
  emit_volume(setup, plan->vol);
  for (Face f : mesh::kAllFaces) {
    emit_flux_face(setup, f, /*boundary=*/false,
                   mesh::normal_sign(f) < 0 ? plan->flux_minus
                                            : plan->flux_plus);
  }
  emit_integration_stage(setup, /*stage=*/1, /*dt=*/1.0e-3f, plan->integ);

  // --- Interconnect batches of one batch of elements ---------------------
  // Both face signs usually stage the same intra-element transfers; the
  // pricer schedules that batch once.
  BatchPricer::Recipe recipe;
  recipe.dim = 1ull << problem_.refinement_level;
  recipe.slices_per_batch = config_.slices_per_batch;
  recipe.blocks_per_element = blocks_per_element(config_.expansion);
  recipe.elements_per_batch = config_.elements_per_batch;
  recipe.morton = options_.morton_placement;
  auto staging = [&](const CostSink& sink) {
    BatchPricer::Recipe staged = recipe;
    staged.intra = sink.intra();
    return staged;
  };
  auto fetch = [&](const CostSink& sink, int normal_sign) {
    BatchPricer::Recipe fetched = recipe;
    fetched.normal_sign = normal_sign;
    fetched.inter = sink.inter();
    return fetched;
  };
  plan->recipes = {staging(plan->vol), staging(plan->flux_minus),
                   staging(plan->flux_plus), fetch(plan->flux_minus, -1),
                   fetch(plan->flux_plus, +1)};
  return plan;
}

StepEstimate Estimator::finish(
    const Plan& plan,
    std::span<const pim::ScheduleResult, kBatches> schedules) const {
  const pim::HbmModel hbm;
  const pim::HostModel host(kHostSpecialOpsPerS);
  const CostSink& vol = plan.vol;
  const CostSink& flux_minus = plan.flux_minus;
  const CostSink& flux_plus = plan.flux_plus;
  const CostSink& integ = plan.integ;
  const pim::ScheduleResult& vol_staging = schedules[0];
  const pim::ScheduleResult& flux_stage_minus = schedules[1];
  const pim::ScheduleResult& flux_stage_plus = schedules[2];
  const pim::ScheduleResult& fetch_minus = schedules[3];
  const pim::ScheduleResult& fetch_plus = schedules[4];

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
