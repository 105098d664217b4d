#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "dg/fields.h"
#include "mapping/element_program.h"
#include "mapping/exec_plan.h"
#include "mapping/program_cache.h"
#include "mapping/residency.h"
#include "mapping/sinks.h"
#include "mapping/word_plan.h"
#include "mesh/structured_mesh.h"
#include "pim/chip.h"

namespace wavepim::mapping {

/// Execution tier of the functional simulator. Both produce
/// bit-identical fields, cost channels and interconnect statistics
/// (guarded by tests/mapping/exec_conformance_test.cpp), and both are
/// checked against a test-side functional oracle that re-lowers every
/// element each phase (tests/mapping/functional_oracle_test.cpp). Every
/// program runs the default, Word; only perfbench, the micro benches and
/// the tests select a tier, to time or check the two against each other:
///
///  * `Compiled` — each shape class is lowered once into the program
///                 cache, and the cached streams are resolved into
///                 per-class ExecutionPlan op arrays with batched cost
///                 aggregates and pre-merged transfer lists, executed by
///                 a non-virtual dispatch loop.
///  * `Word`     — the compiled streams are resolved once more into
///                 vectorized word-level kernels run op-major over
///                 chunks of same-class elements (mapping/word_plan.h),
///                 with the compiled bit-serial path retained as an
///                 optional differential witness. The default.
enum class ExecPath : std::uint8_t { Compiled, Word };
/// Every tier, in enum order.
inline constexpr ExecPath kAllExecPaths[] = {ExecPath::Compiled,
                                             ExecPath::Word};

[[nodiscard]] const char* to_string(ExecPath path);

/// Bit-true Wave-PIM simulation: executes the mapped Volume / Flux /
/// Integration instruction streams on functional crossbar blocks,
/// producing the same nodal fields as the CPU reference solver up to
/// FP32 rounding. This is the end-to-end validation of the mapping —
/// and doubles as a cycle-level cost probe, since every block op and
/// transfer is priced while it executes.
///
/// Element programs address blocks by *virtual* id (the element-major
/// Placement numbering) and resolve them through a ResidencyManager.
/// Every RK stage walks the BatchSchedule's step list: Load steps bring
/// Y-slices on chip (and run Volume at a slice's first load of the
/// stage), Compute steps apply one face group to a slice range, Store
/// steps run Integration at a slice's last store and write the slice
/// back. A fully resident problem is simply the single-window instance
/// of the same schedule (its Load/Store steps move no data), so batched
/// and resident runs execute the identical per-element operation
/// sequence — the fields and the compute/network cost channels are
/// bit-identical, and only the `hbm` staging channel differs.
///
/// Execution is parallel at element granularity and deterministic for
/// any worker count:
///
///  * Volume and Integration touch only the bound element's blocks;
///    per-element transfer lists are concatenated in element order
///    before interconnect scheduling.
///  * Flux runs a two-phase schedule. Phase A (the Compute steps)
///    applies face corrections in parallel: neighbour *variable*
///    columns are only read, so the data exchange is race-free, while
///    the source-side read costs owed to neighbours are deferred.
///    Phase B settles them at stage end over precomputed disjoint face
///    pairings.
///  * Block ledgers are folded into per-virtual-block accumulators at
///    every schedule-step boundary (physical blocks are recycled across
///    windows, virtual accumulators are not), and each phase drain
///    merges the accumulators in ascending virtual-id order, fixing the
///    floating-point reduction order.
class PimSimulation {
 public:
  /// Uniform materials; the mesh spans [0, 1]^3.
  PimSimulation(const Problem& problem, ExpansionMode mode,
                pim::ChipConfig chip,
                mesh::Boundary boundary = mesh::Boundary::Periodic,
                dg::AcousticMaterial acoustic = {},
                dg::ElasticMaterial elastic = {.lambda = 2.0,
                                               .mu = 1.0,
                                               .rho = 1.0});

  /// Heterogeneous acoustic medium: per-element materials. The host
  /// pre-computes per-face-pair flux constants (the paper's LUT path);
  /// here that becomes one probed coefficient set per (element, face).
  PimSimulation(const Problem& problem, ExpansionMode mode,
                pim::ChipConfig chip,
                const dg::MaterialField<dg::AcousticMaterial>& materials,
                mesh::Boundary boundary = mesh::Boundary::Periodic);

  /// Heterogeneous elastic medium.
  PimSimulation(const Problem& problem, ExpansionMode mode,
                pim::ChipConfig chip,
                const dg::MaterialField<dg::ElasticMaterial>& materials,
                mesh::Boundary boundary = mesh::Boundary::Periodic);

  [[nodiscard]] const mesh::StructuredMesh& mesh() const { return mesh_; }
  [[nodiscard]] const ElementSetup& setup() const { return setup_; }
  [[nodiscard]] pim::Chip& chip() { return *chip_; }
  /// The virtual-to-physical block mapping layer (window geometry, the
  /// executed schedule and the staging counters).
  [[nodiscard]] const ResidencyManager& residency() const {
    return *residency_;
  }

  /// Selects the worker count for the element-parallel phases: 1 runs
  /// serially, 0 (default) uses the process-global pool (sized by
  /// `WAVEPIM_NUM_THREADS` or the hardware), any other value creates a
  /// dedicated pool. Results are identical for every setting.
  void set_num_threads(std::size_t num_threads);
  [[nodiscard]] std::size_t num_threads() { return pool().size(); }

  /// Selects the execution tier (see ExecPath). The default is Word.
  void set_exec_path(ExecPath path) { exec_path_ = path; }
  [[nodiscard]] ExecPath exec_path() const { return exec_path_; }

  /// The cache, once the first compiled or word step has built it
  /// (nullptr before).
  [[nodiscard]] const ProgramCache* program_cache() const {
    return cache_.get();
  }
  /// Adopts a cache built elsewhere (the service ProgramBank's shared
  /// shape-class entry) instead of lowering a private one: tenants of
  /// the same (problem, expansion, boundary) class run the identical
  /// streams, and the cache is immutable, so tenants on different chips
  /// replay it concurrently. Uniform-material problems only; call before
  /// the first compiled/word step.
  void set_shared_cache(std::shared_ptr<const ProgramCache> cache);
  /// The compiled plan, once the first compiled step has built it.
  [[nodiscard]] const ExecutionPlan* execution_plan() const {
    return plan_.get();
  }
  /// The word-level plan, once the first word-tier step has built it.
  [[nodiscard]] const WordPlan* word_plan() const { return word_plan_.get(); }

  // --- Witness mode (word tier only) ---------------------------------------
  // The bit-serial compiled path doubles as a conformance witness for the
  // word tier: a checked phase snapshots its elements' blocks before the
  // word kernels run, re-executes the phase through the ExecutionPlan on
  // shadow blocks seeded from the snapshot, and compares per-block
  // FNV-1a hashes of the full stored post-state (`fnv1a_floats`: any NaN
  // hashes as the canonical quiet NaN). Flux re-execution reads
  // neighbour *variable* columns from the live blocks — safe, because no
  // phase writes them before Integration.

  /// Witness cadence: 0 (default) disables (and keeps the hot path
  /// allocation-free), 1 checks every phase application ("full", the CI
  /// lane), N checks every Nth phase application, starting with the first.
  void set_witness_interval(std::uint32_t interval) {
    witness_interval_ = interval;
  }
  [[nodiscard]] std::uint32_t witness_interval() const {
    return witness_interval_;
  }

  struct WitnessStats {
    std::uint64_t checks = 0;          ///< phase applications re-executed
    std::uint64_t blocks_checked = 0;  ///< block hash comparisons
    std::uint64_t mismatches = 0;      ///< blocks whose hashes differed
  };
  /// One divergent block of a checked phase: where, and when.
  struct WitnessMismatch {
    int stage = 0;                  ///< RK stage of the checked phase
    std::uint32_t schedule_step = 0;  ///< BatchSchedule step index
    std::uint32_t vblock = 0;       ///< virtual id of the divergent block
  };
  [[nodiscard]] const WitnessStats& witness_stats() const {
    return witness_stats_;
  }
  [[nodiscard]] const std::vector<WitnessMismatch>& witness_mismatches()
      const {
    return witness_mismatches_;
  }

  /// Test hook: before the next witness comparison, flips the sign bit
  /// of the word at (row, col) of virtual block `vblock` in the *live*
  /// state — the injected fault a functioning witness must catch and
  /// attribute. One-shot.
  void set_witness_corruption(std::uint32_t vblock, std::uint32_t col,
                              std::uint32_t row) {
    witness_corruption_ = {vblock, col, row};
  }

  /// Loads nodal variables into the blocks' variable columns and zeroes
  /// the auxiliaries (Fig. 5's "loading inputs" step). Element-parallel.
  /// Resident runs charge the initial HBM load to the `hbm` channel;
  /// batched runs write the host-side backing store instead (the step
  /// loop's Load steps price the staging).
  void load_state(const dg::Field& u);

  /// Reads the variables back out (blocks when resident, the backing
  /// store when batched). Element-parallel. Resident runs charge the
  /// final HBM readback to the `hbm` channel.
  [[nodiscard]] dg::Field read_state();

  /// Advances one time step (five RK stages through the full PIM
  /// instruction streams, each a pass over the residency schedule).
  void step(double dt);

  /// Per-kernel accumulated cost since construction. Compute phases take
  /// the busiest block per phase; transfers are interconnect-scheduled.
  /// `hbm` prices the off-chip staging traffic (state load/readback when
  /// resident, the schedule's slice loads/stores when batched); it is
  /// reported separately and NOT part of total(), which remains the
  /// on-chip execution cost — identical for batched and resident runs.
  struct Costs {
    pim::OpCost volume;
    pim::OpCost flux;
    pim::OpCost integration;
    pim::OpCost network;
    pim::OpCost hbm;

    [[nodiscard]] pim::OpCost total() const {
      pim::OpCost t = volume;
      t += flux;
      t += integration;
      t += network;
      return t;
    }
  };
  [[nodiscard]] const Costs& costs() const { return costs_; }

  /// Deterministic interconnect statistics accumulated by the per-phase
  /// transfer schedules (merged in element order, flux additionally in
  /// the canonical face-group order — identical for any worker count and
  /// for every execution tier).
  struct NetStats {
    std::uint64_t schedules = 0;  ///< network drains run
    std::uint64_t transfers = 0;  ///< transfer descriptors scheduled
    std::uint64_t words = 0;      ///< 32-bit words moved
    Seconds serial_sum;           ///< sum of isolated latencies
    // Link aggregates: every drain's schedule carries link statistics.
    Seconds stall_time;            ///< total per-transfer queue wait
    double max_utilization = 0.0;  ///< busiest link fraction of any drain
    std::uint64_t peak_queue = 0;  ///< deepest per-link queue seen
  };
  [[nodiscard]] const NetStats& net_stats() const { return net_stats_; }

 private:
  [[nodiscard]] ThreadPool& pool();

  /// The first node-count rows of state column `col` of virtual block
  /// `vblock`: the block's own column when resident, the host-side
  /// backing store when batched. Elements own disjoint columns, so the
  /// state loaders fan out over it without synchronisation.
  [[nodiscard]] std::span<float> state_column(std::uint32_t vblock,
                                              std::uint32_t col);

  /// Folds the physical block ledgers of `elements` into the phase's
  /// per-virtual-block accumulators and clears them — called at every
  /// schedule-step boundary, before a window store can recycle the
  /// physical slots.
  void fold_ledgers(std::span<const mesh::ElementId> elements,
                    std::vector<pim::OpCost>& acc);

  /// Flux phase B: applies the deferred neighbour-side read charges over
  /// the precomputed disjoint face pairings into `flux_acc_`.
  void settle_charges();

  /// Merges and clears a phase's accumulators into a cost channel:
  /// {max time, energy summed in ascending virtual-id order}.
  void drain_accumulators(std::vector<pim::OpCost>& acc, pim::OpCost& into);

  /// The ledger increments of one phase's interconnect schedule.
  struct NetDrain {
    pim::OpCost cost;            ///< {makespan, energy} of the schedule
    std::uint64_t transfers = 0;
    std::uint64_t words = 0;
    Seconds serial_sum;
    pim::LinkStats links;
  };
  /// Schedules a transfer list on the interconnect, with link statistics.
  /// Does not modify the list (the plan's pre-merged lists are fed every
  /// stage).
  [[nodiscard]] NetDrain measure_network(
      const std::vector<pim::Transfer>& transfers) const;
  /// Folds one drain into the network cost channel and NetStats.
  void fold_network(const NetDrain& drain);

  /// Memoised network drain: a phase's transfer list is identical every
  /// stage, so the interconnect schedule is run once and its
  /// (deterministic) increments are folded again every stage.
  void drain_network(std::optional<NetDrain>& cached,
                     const std::vector<pim::Transfer>& transfers);
  /// Capacity diagnostics (throws CapacityError with the choose_config
  /// hint when the problem cannot even batch on this chip).
  void check_capacity(const pim::ChipConfig& chip) const;
  /// Builds the chip and the pricing/residency/accumulator setup over it
  /// — the tail every constructor shares.
  void init_chip(pim::ChipConfig chip);
  void build_face_pairings();

  /// Builds the compiled plan on the first compiled step, and beneath it
  /// the shape-class cache unless one was adopted (classifies the mesh,
  /// lowers each class once into the shared arena).
  void ensure_plan();
  /// Builds the word plan (and the compiled plan beneath it — the word
  /// tier's cost source and witness) on the first word-tier step.
  void ensure_word_plan();

  /// Runs one word-tier phase: chunked fan-out of `run_word` over
  /// `elems`, wrapped in the witness protocol when this phase
  /// application is selected by the cadence (snapshot before, shadow
  /// re-execution + hash compare after). `run_shadow` re-executes one
  /// element bit-serially through the given resolver.
  template <typename RunWord, typename RunShadow>
  void run_word_phase(std::span<const mesh::ElementId> elems, int stage,
                      std::uint32_t step_idx, RunWord&& run_word,
                      RunShadow&& run_shadow);

  /// Copies the pre-state of `elems`' blocks into the witness snapshot.
  void witness_snapshot(std::span<const mesh::ElementId> elems);
  /// Shadow re-execution + comparison of one checked phase (see the
  /// witness section above). Emits one `pim.witness` span, and a
  /// `pim.witness.mismatch` instant per divergent block.
  void witness_verify(
      std::span<const mesh::ElementId> elems, int stage,
      std::uint32_t step_idx,
      const std::function<void(const BlockResolver&, mesh::ElementId)>&
          run_shadow);

  /// One step: five RK stages, each a pass over the residency schedule's
  /// step list, shared by both tiers (they differ only in how one
  /// element's stream runs: compiled op loop or word kernels).
  void run_schedule(double dt);

  Problem problem_;
  mesh::StructuredMesh mesh_;
  ElementSetup setup_;
  std::unique_ptr<pim::Chip> chip_;
  std::unique_ptr<ResidencyManager> residency_;
  /// Interconnect used to price transfers, which carry *virtual* block
  /// ids: the chip's own network when the problem is resident, otherwise
  /// one built over an inflated copy of the chip geometry so every
  /// virtual id has a position (hop costs depend only on the id, so the
  /// resident prices are unchanged).
  std::unique_ptr<pim::Interconnect> owned_net_;
  const pim::Interconnect* net_ = nullptr;
  Placement placement_{1};
  SinkPricing pricing_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< set_num_threads(n >= 1)
  Costs costs_;
  NetStats net_stats_;
  ExecPath exec_path_ = ExecPath::Word;
  /// Built privately by ensure_plan, or adopted via set_shared_cache.
  std::shared_ptr<const ProgramCache> cache_;
  std::unique_ptr<ExecutionPlan> plan_;
  std::unique_ptr<WordPlan> word_plan_;
  /// Witness state (word tier). Everything below is touched only when
  /// `witness_interval_ != 0`, so witness-off steps allocate nothing.
  std::uint32_t witness_interval_ = 0;
  std::uint64_t witness_counter_ = 0;  ///< phase applications seen
  WitnessStats witness_stats_;
  std::vector<WitnessMismatch> witness_mismatches_;
  std::vector<float> witness_snapshot_;   ///< pre-state of checked phase
  std::vector<std::uint8_t> witness_bad_;  ///< per-block compare results
  struct WitnessCorruption {
    std::uint32_t vblock;
    std::uint32_t col;
    std::uint32_t row;
  };
  std::optional<WitnessCorruption> witness_corruption_;
  /// Disjoint face pairings for flux phase B: pairing group (axis, parity)
  /// holds the elements whose +axis face starts a pairing (the element's
  /// coordinate along the axis has that parity). Within a group, an
  /// element appears in at most one pairing — its own entry or its -axis
  /// neighbour's — so pairings can settle concurrently.
  std::array<std::vector<mesh::ElementId>, 6> face_pairings_;
  std::vector<VolumeCoeffs> volume_coeffs_;       ///< per element
  std::vector<std::array<FluxCoeffs, 6>> flux_coeffs_;  ///< per element/face
  /// Per-phase cost accumulators indexed by virtual block id; folded from
  /// the physical ledgers at step boundaries and drained per stage.
  std::vector<pim::OpCost> volume_acc_;
  std::vector<pim::OpCost> flux_acc_;
  std::vector<pim::OpCost> integ_acc_;
  /// Schedule-step index of each slice's first Load / last Store within
  /// one stage pass: Volume runs at the first load, Integration at the
  /// last store (the periodic staging slice is loaded and stored twice).
  std::vector<std::uint32_t> first_load_step_;
  std::vector<std::uint32_t> last_store_step_;
  /// Once-scheduled network phases.
  std::optional<NetDrain> volume_net_;
  std::optional<NetDrain> flux_net_;
};

}  // namespace wavepim::mapping
