#include "mapping/simulation.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

#include "common/error.h"
#include "common/float_bits.h"
#include "dg/rk.h"
#include "mapping/config.h"
#include "trace/trace.h"

namespace wavepim::mapping {

namespace {

constexpr std::uint32_t kNoStep = std::numeric_limits<std::uint32_t>::max();

/// Process-wide witness check count; keys the per-worker table copies.
std::atomic<std::uint64_t> g_witness_check{0};

}  // namespace

const char* to_string(ExecPath path) {
  switch (path) {
    case ExecPath::Compiled:
      return "compiled";
    case ExecPath::Word:
      return "word";
  }
  return "?";
}

PimSimulation::PimSimulation(const Problem& problem, ExpansionMode mode,
                             pim::ChipConfig chip, mesh::Boundary boundary,
                             dg::AcousticMaterial acoustic,
                             dg::ElasticMaterial elastic)
    : problem_(problem),
      mesh_(problem.refinement_level, 1.0, boundary),
      setup_(problem, mode, mesh_.element_size(), acoustic, elastic) {
  init_chip(std::move(chip));
}

namespace {

template <typename Physics>
void probe_heterogeneous(
    const mesh::StructuredMesh& mesh,
    const dg::MaterialField<typename Physics::Material>& materials,
    dg::FluxType flux, std::vector<VolumeCoeffs>& volume,
    std::vector<std::array<FluxCoeffs, 6>>& face_coeffs) {
  WAVEPIM_REQUIRE(materials.size() == mesh.num_elements(),
                  "one material per element required");
  volume.resize(mesh.num_elements());
  face_coeffs.resize(mesh.num_elements());
  for (mesh::ElementId e = 0; e < mesh.num_elements(); ++e) {
    const auto& mine = materials.at(e);
    volume[e] = probe_volume<Physics>(mine);
    for (mesh::Face f : mesh::kAllFaces) {
      const auto neighbor = mesh.neighbor(e, f);
      if (neighbor) {
        face_coeffs[e][mesh::index_of(f)] = probe_flux<Physics>(
            f, flux, mine, materials.at(*neighbor), /*boundary=*/false);
      } else {
        face_coeffs[e][mesh::index_of(f)] =
            probe_flux<Physics>(f, flux, mine, mine, /*boundary=*/true);
      }
    }
  }
}

}  // namespace

PimSimulation::PimSimulation(
    const Problem& problem, ExpansionMode mode, pim::ChipConfig chip,
    const dg::MaterialField<dg::AcousticMaterial>& materials,
    mesh::Boundary boundary)
    : problem_(problem),
      mesh_(problem.refinement_level, 1.0, boundary),
      setup_(problem, mode, mesh_.element_size()) {
  WAVEPIM_REQUIRE(!dg::is_elastic(problem.kind),
                  "acoustic materials supplied for an elastic problem");
  probe_heterogeneous<dg::AcousticPhysics>(mesh_, materials,
                                           dg::flux_of(problem.kind),
                                           volume_coeffs_, flux_coeffs_);
  init_chip(std::move(chip));
}

PimSimulation::PimSimulation(
    const Problem& problem, ExpansionMode mode, pim::ChipConfig chip,
    const dg::MaterialField<dg::ElasticMaterial>& materials,
    mesh::Boundary boundary)
    : problem_(problem),
      mesh_(problem.refinement_level, 1.0, boundary),
      setup_(problem, mode, mesh_.element_size()) {
  WAVEPIM_REQUIRE(dg::is_elastic(problem.kind),
                  "elastic materials supplied for an acoustic problem");
  probe_heterogeneous<dg::ElasticPhysics>(mesh_, materials,
                                          dg::flux_of(problem.kind),
                                          volume_coeffs_, flux_coeffs_);
  init_chip(std::move(chip));
}

void PimSimulation::check_capacity(const pim::ChipConfig& chip) const {
  const std::uint32_t bpe = blocks_per_element(setup_.mode());
  const std::uint64_t needed = problem_.num_elements() * bpe;
  const std::uint64_t blocks_per_slice =
      static_cast<std::uint64_t>(mesh_.elements_per_slice()) * bpe;
  if (needed > chip.num_blocks() &&
      chip.num_blocks() < 2 * blocks_per_slice) {
    // Even batched residency needs a window slice plus the staging slice
    // on chip. Report what would fit instead of a bare failure.
    std::string message =
        "problem '" + problem_.name() + "' needs " + std::to_string(needed) +
        " blocks, chip '" + chip.name + "' has " +
        std::to_string(chip.num_blocks()) +
        "; batched residency needs at least 2 resident Y-slices of " +
        std::to_string(blocks_per_slice) + " blocks each";
    try {
      const MappingConfig fit = choose_config(problem_, chip);
      message += "; config '" + fit.label() + "' with " +
                 std::to_string(fit.slices_per_batch) +
                 " resident slices applies";
    } catch (const CapacityError&) {
      message += "; no expansion mode fits this chip";
    }
    throw CapacityError(message);
  }
}

void PimSimulation::init_chip(pim::ChipConfig chip) {
  check_capacity(chip);
  chip_ = std::make_unique<pim::Chip>(std::move(chip));
  const std::uint32_t bpe = blocks_per_element(setup_.mode());
  const std::uint64_t needed = problem_.num_elements() * bpe;
  const auto nodes = static_cast<std::uint32_t>(setup_.ref().num_nodes());
  // Blocks store the node rows programs touch, in whole 8-row vector
  // groups; set before the residency manager allocates a block.
  chip_->set_row_extent((nodes + 7) / 8 * 8);

  pricing_ = SinkPricing::make(chip_->arith(), chip_->interconnect());

  placement_ = Placement(bpe);
  residency_ = std::make_unique<ResidencyManager>(
      *chip_, mesh_, bpe, nodes,
      element_state_bytes(problem_.kind, problem_.n1d));

  // Transfers carry virtual block ids. When the problem is batched those
  // exceed the chip's physical id range, so price them on an interconnect
  // built over an inflated copy of the same geometry (hop costs depend
  // only on id positions, never on how many other blocks exist, so the
  // resident ids price identically on either network).
  if (needed > chip_->config().num_blocks()) {
    pim::ChipConfig net_config = chip_->config();
    net_config.block_limit = 0;
    const std::uint64_t tiles =
        (needed + pim::ChipConfig::kBlocksPerTile - 1) /
        pim::ChipConfig::kBlocksPerTile;
    net_config.capacity = tiles * pim::ChipConfig::tile_bytes();
    owned_net_ = std::make_unique<pim::Interconnect>(net_config);
  }
  net_ = owned_net_ ? owned_net_.get() : &chip_->interconnect();

  volume_acc_.assign(needed, {});
  flux_acc_.assign(needed, {});
  integ_acc_.assign(needed, {});

  // Volume runs when a slice first becomes resident in a stage pass,
  // Integration just before it is stored for good (the periodic staging
  // slice is loaded twice and stored twice per pass).
  const auto& steps = residency_->schedule().steps;
  first_load_step_.assign(mesh_.num_slices(), kNoStep);
  last_store_step_.assign(mesh_.num_slices(), kNoStep);
  for (std::uint32_t idx = 0; idx < steps.size(); ++idx) {
    const BatchStep& step = steps[idx];
    if (step.kind == BatchStep::Kind::LoadSlices) {
      for (std::uint32_t s = step.first_slice; s <= step.last_slice; ++s) {
        if (first_load_step_[s] == kNoStep) {
          first_load_step_[s] = idx;
        }
      }
    } else if (step.kind == BatchStep::Kind::StoreSlices) {
      for (std::uint32_t s = step.first_slice; s <= step.last_slice; ++s) {
        last_store_step_[s] = idx;
      }
    }
  }

  build_face_pairings();
}

void PimSimulation::build_face_pairings() {
  // Pairing group (axis, parity): elements whose +axis face pairs them
  // with their +axis neighbour and whose coordinate along the axis has
  // that parity. dim() is a power of two, so for dim >= 2 the parity
  // split is a proper 2-colouring even across the periodic wrap; dim == 1
  // collapses to self-pairings that all land in parity 0.
  for (auto& group : face_pairings_) {
    group.clear();
  }
  for (mesh::Axis a : mesh::kAllAxes) {
    const mesh::Face plus = mesh::make_face(a, +1);
    for (mesh::ElementId e = 0; e < mesh_.num_elements(); ++e) {
      if (!mesh_.neighbor(e, plus)) {
        continue;  // reflective boundary: no exchange across this face
      }
      const std::uint32_t parity = mesh_.coords_of(e)[mesh::index_of(a)] % 2;
      face_pairings_[2 * mesh::index_of(a) + parity].push_back(e);
    }
  }
}

ThreadPool& PimSimulation::pool() {
  return owned_pool_ ? *owned_pool_ : ThreadPool::global();
}

void PimSimulation::set_num_threads(std::size_t num_threads) {
  owned_pool_ =
      num_threads == 0 ? nullptr : std::make_unique<ThreadPool>(num_threads);
}

void PimSimulation::set_shared_cache(
    std::shared_ptr<const ProgramCache> cache) {
  WAVEPIM_REQUIRE(cache != nullptr, "shared cache must not be null");
  WAVEPIM_REQUIRE(!cache_,
                  "set_shared_cache must precede the first cached step");
  WAVEPIM_REQUIRE(volume_coeffs_.empty() && flux_coeffs_.empty(),
                  "heterogeneous media lower per-element coefficients; only "
                  "uniform-material caches are shareable");
  const ElementSetup& theirs = cache->setup();
  WAVEPIM_REQUIRE(theirs.problem().kind == problem_.kind &&
                      theirs.problem().refinement_level ==
                          problem_.refinement_level &&
                      theirs.problem().n1d == problem_.n1d &&
                      theirs.mode() == setup_.mode(),
                  "shared cache was built for a different job class");
  cache_ = std::move(cache);
}

void PimSimulation::ensure_plan() {
  if (plan_) {
    return;
  }
  if (!cache_) {
    trace::Span span("pim.build_cache");
    cache_ = std::make_shared<ProgramCache>(
        setup_, mesh_, volume_coeffs_.empty() ? nullptr : &volume_coeffs_,
        flux_coeffs_.empty() ? nullptr : &flux_coeffs_);
  }
  trace::Span span("pim.build_plan");
  plan_ = std::make_unique<ExecutionPlan>(*cache_, mesh_, placement_,
                                          pricing_, chip_->row_extent());
}

void PimSimulation::ensure_word_plan() {
  if (word_plan_) {
    return;
  }
  ensure_plan();
  trace::Span span("pim.build_word_plan");
  word_plan_ = std::make_unique<WordPlan>(*plan_);
}

std::span<float> PimSimulation::state_column(std::uint32_t vblock,
                                             std::uint32_t col) {
  if (!residency_->is_resident()) {
    return residency_->backing_column(vblock, col);
  }
  return residency_->table()[vblock]->column(col).first(
      static_cast<std::size_t>(setup_.ref().num_nodes()));
}

void PimSimulation::load_state(const dg::Field& u) {
  WAVEPIM_REQUIRE(u.num_elements() == mesh_.num_elements() &&
                      u.num_vars() == problem_.num_vars() &&
                      u.nodes_per_element() ==
                          static_cast<std::size_t>(setup_.ref().num_nodes()),
                  "field shape does not match the problem");
  trace::Span span("pim.load_state");
  // Elements own disjoint blocks (or disjoint backing columns), so
  // loading parallelizes trivially.
  pool().parallel_for(u.num_elements(), [&](std::size_t e) {
    for (std::uint32_t v = 0; v < problem_.num_vars(); ++v) {
      const std::uint32_t g = setup_.owner_of(v);
      const auto& layout = setup_.layout(g);
      const std::uint32_t slot = setup_.slot_of(v);
      const std::uint32_t vb =
          placement_.block_of(static_cast<mesh::ElementId>(e), g);
      std::ranges::copy(u.at(e, v),
                        state_column(vb, layout.col_var(slot)).begin());
      std::ranges::fill(state_column(vb, layout.col_aux(slot)), 0.0f);
    }
  });
  if (residency_->is_resident()) {
    // The one host->HBM->chip transfer of the whole state; batched runs
    // write the host-side backing store and the schedule's Load steps
    // price the staging instead.
    costs_.hbm += chip_->hbm().transfer_cost(
        element_state_bytes(problem_.kind, problem_.n1d) *
        mesh_.num_elements());
  }
}

dg::Field PimSimulation::read_state() {
  trace::Span span("pim.read_state");
  dg::Field u(mesh_.num_elements(), problem_.num_vars(),
              static_cast<std::size_t>(setup_.ref().num_nodes()));
  pool().parallel_for(u.num_elements(), [&](std::size_t e) {
    for (std::uint32_t v = 0; v < problem_.num_vars(); ++v) {
      const std::uint32_t g = setup_.owner_of(v);
      const std::uint32_t vb =
          placement_.block_of(static_cast<mesh::ElementId>(e), g);
      std::ranges::copy(
          state_column(vb, setup_.layout(g).col_var(setup_.slot_of(v))),
          u.at(e, v).begin());
    }
  });
  if (residency_->is_resident()) {
    costs_.hbm += chip_->hbm().transfer_cost(
        element_state_bytes(problem_.kind, problem_.n1d) *
        mesh_.num_elements());
  }
  return u;
}

void PimSimulation::fold_ledgers(std::span<const mesh::ElementId> elements,
                                 std::vector<pim::OpCost>& acc) {
  // A step only ever charges the ranged elements' own blocks (neighbour
  // reads are deferred), so folding this range drains every ledger the
  // step touched — before a later Store can recycle the physical slots.
  const std::uint32_t bpe = placement_.blocks_per_element();
  pim::Block* const* table = residency_->table();
  for (const mesh::ElementId e : elements) {
    for (std::uint32_t g = 0; g < bpe; ++g) {
      const std::uint32_t vb = e * bpe + g;
      pim::Block& block = *table[vb];
      acc[vb] += block.consumed();
      block.reset_cost();
    }
  }
}

void PimSimulation::settle_charges() {
  // Six sequential pairing groups; within each, pairings touch disjoint
  // element pairs, so they settle concurrently, and every accumulator
  // receives its charges in a fixed (group, face, emission) order.
  trace::Span span("pim.settle");
  for (std::size_t group = 0; group < face_pairings_.size(); ++group) {
    const auto& pairing = face_pairings_[group];
    const auto axis = static_cast<mesh::Axis>(group / 2);
    const mesh::Face plus = mesh::make_face(axis, +1);
    const mesh::Face minus = mesh::make_face(axis, -1);
    pool().parallel_for(pairing.size(), [&](std::size_t i) {
      const mesh::ElementId e = pairing[i];
      const mesh::ElementId nbr = *mesh_.neighbor(e, plus);
      // This element's pull across +axis owes reads to `nbr`'s blocks;
      // the partner's pull back across -axis owes reads to ours. The
      // charges land in the flux accumulators (not the block ledgers):
      // a batched window may already have evicted the physical blocks.
      plan_->settle_pull(flux_acc_.data(), e, plus);
      plan_->settle_pull(flux_acc_.data(), nbr, minus);
    });
  }
}

void PimSimulation::drain_accumulators(std::vector<pim::OpCost>& acc,
                                       pim::OpCost& into) {
  trace::Span span("pim.drain_phase");
  // Ascending virtual-id order fixes the energy reduction order, however
  // the phase's work was distributed across workers.
  Seconds busiest{};
  Joules energy{};
  for (auto& cost : acc) {
    busiest = std::max(busiest, cost.time);
    energy += cost.energy;
    cost = {};
  }
  into += {busiest, energy};
}

PimSimulation::NetDrain PimSimulation::measure_network(
    const std::vector<pim::Transfer>& transfers) const {
  // Drains are memoised, so the link bookkeeping runs once per list.
  const auto result = net_->schedule(transfers, /*link_stats=*/true);
  NetDrain drain{.cost = {result.makespan, result.energy},
                 .transfers = transfers.size(),
                 .serial_sum = result.serial_sum,
                 .links = result.links};
  for (const auto& t : transfers) {
    drain.words += t.words;
  }
  return drain;
}

void PimSimulation::fold_network(const NetDrain& drain) {
  costs_.network += drain.cost;
  net_stats_.schedules += 1;
  net_stats_.transfers += drain.transfers;
  net_stats_.words += drain.words;
  net_stats_.serial_sum += drain.serial_sum;
  net_stats_.stall_time += drain.links.stall_time;
  net_stats_.max_utilization =
      std::max(net_stats_.max_utilization, drain.links.max_utilization);
  net_stats_.peak_queue =
      std::max<std::uint64_t>(net_stats_.peak_queue, drain.links.peak_queue);
}

void PimSimulation::drain_network(
    std::optional<NetDrain>& cached,
    const std::vector<pim::Transfer>& transfers) {
  trace::Span span("pim.drain_network", static_cast<double>(transfers.size()));
  if (!cached) {
    cached = measure_network(transfers);
  }
  fold_network(*cached);
}

void PimSimulation::step(double dt) {
  WAVEPIM_REQUIRE(dt > 0.0, "time step must be positive");
  trace::Span span("pim.step");
  switch (exec_path_) {
    case ExecPath::Compiled:
      ensure_plan();
      break;
    case ExecPath::Word:
      ensure_word_plan();
      break;
  }
  run_schedule(dt);
}

void PimSimulation::witness_snapshot(std::span<const mesh::ElementId> elems) {
  const std::size_t block_words =
      std::size_t{chip_->row_extent()} * pim::Block::kWords;
  const std::uint32_t bpe = placement_.blocks_per_element();
  witness_snapshot_.resize(elems.size() * bpe * block_words);
  pim::Block* const* table = residency_->table();
  pool().parallel_for(elems.size(), [&](std::size_t i) {
    for (std::uint32_t g = 0; g < bpe; ++g) {
      const auto src =
          table[static_cast<std::size_t>(elems[i]) * bpe + g]->words();
      std::copy(src.begin(), src.end(),
                witness_snapshot_.begin() +
                    static_cast<std::ptrdiff_t>((i * bpe + g) * block_words));
    }
  });
}

void PimSimulation::witness_verify(
    std::span<const mesh::ElementId> elems, int stage,
    std::uint32_t step_idx,
    const std::function<void(const BlockResolver&, mesh::ElementId)>&
        run_shadow) {
  const std::uint32_t rows = chip_->row_extent();
  const std::size_t block_words = std::size_t{rows} * pim::Block::kWords;
  const std::uint32_t bpe = placement_.blocks_per_element();
  pim::Block* const* table = residency_->table();
  if (witness_corruption_) {
    // The injected fault (tests): flip the sign bit of one live word
    // after the word kernels ran, so a functioning witness must flag
    // exactly this block.
    const auto [vblock, col, row] = *witness_corruption_;
    witness_corruption_.reset();
    const float w = table[vblock]->at(row, col);
    table[vblock]->set(
        row, col,
        std::bit_cast<float>(std::bit_cast<std::uint32_t>(w) ^ 0x80000000u));
  }
  trace::Span span("pim.witness", static_cast<double>(elems.size()));
  witness_bad_.assign(elems.size() * bpe, 0);
  const std::size_t table_entries =
      static_cast<std::size_t>(mesh_.num_elements()) * bpe;
  const std::uint64_t check =
      g_witness_check.fetch_add(1, std::memory_order_relaxed) + 1;
  pool().parallel_for(elems.size(), [&](std::size_t i) {
    // Per-worker shadow pool and virtual-table copy (taken once per
    // check). The element's ids point at the shadow blocks (seeded from
    // the snapshot) for its shadow run only; every other id resolves to
    // the live block — safe for flux, which only reads neighbour variable
    // columns, and those are not written before Integration.
    thread_local std::vector<pim::Block> shadow_blocks;
    thread_local std::vector<pim::Block*> shadow_table;
    thread_local std::uint64_t shadow_check = 0;
    if (shadow_blocks.size() < bpe ||
        &shadow_blocks.front().model() != &chip_->arith() ||
        shadow_blocks.front().rows() != rows) {
      shadow_blocks.clear();
      shadow_blocks.reserve(bpe);
      for (std::uint32_t g = 0; g < bpe; ++g) {
        shadow_blocks.emplace_back(&chip_->arith(), rows);
      }
    }
    if (shadow_check != check) {
      shadow_table.assign(table, table + table_entries);
      shadow_check = check;
    }
    const std::size_t e = elems[i];
    for (std::uint32_t g = 0; g < bpe; ++g) {
      const float* src =
          witness_snapshot_.data() + (i * bpe + g) * block_words;
      const auto dst = shadow_blocks[g].words();
      std::copy(src, src + block_words, dst.begin());
      shadow_blocks[g].reset_cost();  // shadow ledgers are discarded
      shadow_table[e * bpe + g] = &shadow_blocks[g];
    }
    const BlockResolver shadow(*chip_, shadow_table.data());
    run_shadow(shadow, static_cast<mesh::ElementId>(e));
    for (std::uint32_t g = 0; g < bpe; ++g) {
      shadow_table[e * bpe + g] = table[e * bpe + g];
      witness_bad_[i * bpe + g] =
          fnv1a_floats(shadow_blocks[g].words()) !=
          fnv1a_floats(table[e * bpe + g]->words());
    }
  });
  witness_stats_.checks += 1;
  witness_stats_.blocks_checked += elems.size() * bpe;
  for (std::size_t i = 0; i < elems.size(); ++i) {
    for (std::uint32_t g = 0; g < bpe; ++g) {
      if (witness_bad_[i * bpe + g] != 0) {
        const std::uint32_t vblock =
            static_cast<std::uint32_t>(elems[i]) * bpe + g;
        witness_stats_.mismatches += 1;
        witness_mismatches_.push_back({stage, step_idx, vblock});
        trace::instant("pim.witness.mismatch", static_cast<double>(vblock));
      }
    }
  }
}

template <typename RunWord, typename RunShadow>
void PimSimulation::run_word_phase(std::span<const mesh::ElementId> elems,
                                   int stage, std::uint32_t step_idx,
                                   RunWord&& run_word,
                                   RunShadow&& run_shadow) {
  // Cadence: phase applications are counted across stages and steps;
  // every witness_interval_-th one (starting with the first) is checked.
  const bool check = witness_interval_ != 0 &&
                     (witness_counter_++ % witness_interval_) == 0;
  if (check) {
    witness_snapshot(elems);
  }
  const std::size_t chunks =
      (elems.size() + WordPlan::kChunk - 1) / WordPlan::kChunk;
  pool().parallel_for(chunks, [&](std::size_t c) {
    const std::size_t first = c * WordPlan::kChunk;
    run_word(elems.subspan(first,
                           std::min(WordPlan::kChunk, elems.size() - first)));
  });
  if (check) {
    witness_verify(elems, stage, step_idx, run_shadow);
  }
}

void PimSimulation::run_schedule(double dt) {
  // Both tiers share the compiled infrastructure: batched cost
  // aggregates, deferred-charge settlement through the plan, and the
  // once-scheduled network drains.
  const bool word = exec_path_ == ExecPath::Word;
  const BlockResolver resolver(*chip_, residency_->table());
  const BatchSchedule& schedule = residency_->schedule();
  const auto& order = residency_->elements_in_slice_order();
  const std::uint32_t eps = residency_->elements_per_slice();

  const auto slice_elements = [&](std::uint32_t first, std::uint32_t last) {
    return std::span<const mesh::ElementId>(
        order.data() + static_cast<std::size_t>(first) * eps,
        static_cast<std::size_t>(last - first + 1) * eps);
  };

  for (int stage = 0; stage < dg::Lsrk54::kNumStages; ++stage) {
    trace::Span stage_span("pim.rk_stage", static_cast<double>(stage));
    // The plans lower the stage's Integration stream on first use, here
    // before the fan-outs (running it is const and worker-safe).
    const ExecutionPlan::StreamPlan& integ_plan =
        plan_->integration(stage, static_cast<float>(dt));
    const WordPlan::WordStream* integ_word =
        word ? &word_plan_->integration(stage, static_cast<float>(dt))
             : nullptr;

    for (std::uint32_t idx = 0;
         idx < static_cast<std::uint32_t>(schedule.steps.size()); ++idx) {
      const BatchStep& bstep = schedule.steps[idx];
      switch (bstep.kind) {
        case BatchStep::Kind::LoadSlices: {
          trace::Span load_span(
              "batch.load",
              static_cast<double>(bstep.last_slice - bstep.first_slice + 1));
          residency_->load_slices(bstep.first_slice, bstep.last_slice);
          // Volume runs at a slice's first residency of the stage (the
          // periodic staging slice's reload is not a first load).
          std::uint32_t vf = bstep.first_slice;
          while (vf <= bstep.last_slice && first_load_step_[vf] != idx) {
            ++vf;
          }
          std::uint32_t vl = bstep.last_slice;
          while (vl > vf && first_load_step_[vl] != idx) {
            --vl;
          }
          if (vf <= bstep.last_slice) {
            trace::Span phase_span("pim.volume");
            const auto elems = slice_elements(vf, vl);
            if (word) {
              run_word_phase(
                  elems, stage, idx,
                  [&](std::span<const mesh::ElementId> chunk) {
                    word_plan_->run_volume(resolver, chunk);
                  },
                  [&](const BlockResolver& shadow, mesh::ElementId e) {
                    plan_->run_volume(shadow, e);
                  });
            } else {
              pool().parallel_for(elems.size(), [&](std::size_t i) {
                plan_->run_volume(resolver, elems[i]);
              });
            }
            fold_ledgers(elems, volume_acc_);
          }
          break;
        }
        case BatchStep::Kind::ComputeYMinus:
        case BatchStep::Kind::ComputeX:
        case BatchStep::Kind::ComputeZ:
        case BatchStep::Kind::ComputeYPlus: {
          const FaceGroup group = group_of(bstep.kind);
          trace::Span phase_span("pim.flux");
          const auto elems = slice_elements(bstep.first_slice, bstep.last_slice);
          if (word) {
            run_word_phase(
                elems, stage, idx,
                [&](std::span<const mesh::ElementId> chunk) {
                  word_plan_->run_flux_group(resolver, chunk, group);
                },
                [&](const BlockResolver& shadow, mesh::ElementId e) {
                  plan_->run_flux_group(shadow, e, group);
                });
          } else {
            pool().parallel_for(elems.size(), [&](std::size_t i) {
              plan_->run_flux_group(resolver, elems[i], group);
            });
          }
          fold_ledgers(elems, flux_acc_);
          break;
        }
        case BatchStep::Kind::StoreSlices: {
          trace::Span store_span(
              "batch.store",
              static_cast<double>(bstep.last_slice - bstep.first_slice + 1));
          // Integration runs just before a slice leaves the chip for
          // good (the periodic staging slice's first store keeps its
          // state un-integrated for the wrap pairing, like Fig. 7).
          std::uint32_t vf = bstep.first_slice;
          while (vf <= bstep.last_slice && last_store_step_[vf] != idx) {
            ++vf;
          }
          std::uint32_t vl = bstep.last_slice;
          while (vl > vf && last_store_step_[vl] != idx) {
            --vl;
          }
          if (vf <= bstep.last_slice) {
            trace::Span phase_span("pim.integration");
            const auto elems = slice_elements(vf, vl);
            if (word) {
              run_word_phase(
                  elems, stage, idx,
                  [&](std::span<const mesh::ElementId> chunk) {
                    word_plan_->run_stream(resolver, chunk, *integ_word);
                  },
                  [&](const BlockResolver& shadow, mesh::ElementId e) {
                    plan_->run_integration(shadow, e, integ_plan);
                  });
            } else {
              pool().parallel_for(elems.size(), [&](std::size_t i) {
                plan_->run_integration(resolver, elems[i], integ_plan);
              });
            }
            fold_ledgers(elems, integ_acc_);
          }
          residency_->store_slices(bstep.first_slice, bstep.last_slice);
          break;
        }
      }
    }

    // Flux phase B: the deferred neighbour-side read charges, settled
    // over the disjoint pairings after every face group has run.
    settle_charges();

    // Phase drains, in the fixed volume -> flux -> integration order.
    drain_accumulators(volume_acc_, costs_.volume);
    drain_network(volume_net_, plan_->volume_transfers());
    drain_accumulators(flux_acc_, costs_.flux);
    drain_network(flux_net_, plan_->flux_transfers());
    drain_accumulators(integ_acc_, costs_.integration);

    // Staging traffic of this stage pass (zero when fully resident).
    costs_.hbm += residency_->drain_hbm_cost();
  }
}

}  // namespace wavepim::mapping
