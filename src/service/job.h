#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dg/fields.h"
#include "mapping/config.h"
#include "mapping/simulation.h"
#include "mesh/structured_mesh.h"
#include "pim/params.h"

/// Simulation-as-a-service: job descriptions, the seeded request
/// generator and the solo reference runner. A "job" is one complete
/// wave simulation — mesh level, physics, boundary, step budget —
/// arriving at a point on the service's trace clock. The scheduler
/// (scheduler.h) multiplexes many jobs over a few chip slots; the
/// contract is that every job's final field and cost ledgers are
/// bit-identical to `run_job_solo` of the same spec, whatever the
/// policy, chip count or host thread count.
namespace wavepim::service {

/// All jobs advance with this fixed time step (the evaluation matrix's
/// convention), so tenants of one shape class share integration-stage
/// programs in addition to the volume/flux streams.
inline constexpr double kJobDt = 2.0e-4;

/// One simulation request.
struct JobSpec {
  std::uint32_t id = 0;
  double arrival_s = 0.0;  ///< arrival time on the service trace clock
  dg::ProblemKind kind = dg::ProblemKind::Acoustic;
  mapping::ExpansionMode expansion = mapping::ExpansionMode::None;
  int refinement_level = 1;
  int n1d = 3;
  mesh::Boundary boundary = mesh::Boundary::Periodic;
  std::uint32_t steps = 1;     ///< time-step budget (0 = load/read only)
  double deadline_s = 0.0;     ///< absolute deadline; <= 0 means none
  std::uint64_t state_seed = 0;  ///< perturbs the initial field

  [[nodiscard]] mapping::Problem problem() const {
    return {kind, refinement_level, n1d};
  }
  [[nodiscard]] std::string describe() const;
};

/// Knobs of the reproducible request stream. Identical options produce
/// an identical job list on every platform (common::Rng is SplitMix64
/// and the arrival arithmetic avoids libm).
struct GeneratorOptions {
  std::uint32_t num_jobs = 16;
  std::uint64_t seed = 1;
  double mean_interarrival_s = 1.0e-4;  ///< trace-clock seconds
  std::uint32_t max_steps = 4;          ///< per-job budget drawn in [1, max]
  double deadline_fraction = 0.5;       ///< share of jobs given a deadline
  bool zero_step_jobs = false;  ///< all budgets 0 (scheduler-overhead bench)
};

/// The seeded heterogeneous stream: ~60% acoustic (some at mesh level
/// 2), the rest split between central-flux and Riemann elastic, across
/// both boundary patterns. Sorted by (arrival, id); ids are
/// 0..num_jobs-1.
[[nodiscard]] std::vector<JobSpec> generate_jobs(const GeneratorOptions& opt);

/// The job's deterministic initial field: the evaluation suite's seeded
/// state, shifted per job by `state_seed` so tenants do not share
/// trajectories.
[[nodiscard]] dg::Field initial_state(const JobSpec& spec,
                                      const mapping::PimSimulation& sim);

/// FNV-1a over the field's float bit patterns as 16 hex digits, every
/// NaN hashed as the canonical quiet NaN — the bit-exactness witness the
/// conformance suite compares.
[[nodiscard]] std::string field_hash(const dg::Field& field);

/// What a finished job hands back: the bit-exactness witness plus the
/// per-channel cost ledgers and the service-side timeline.
struct JobResult {
  std::uint32_t id = 0;
  std::string hash;
  mapping::PimSimulation::Costs costs;
  mapping::PimSimulation::NetStats net;
  std::uint32_t steps_run = 0;
  double arrival_s = 0.0;
  double first_bind_s = 0.0;   ///< first time the job held a chip
  double completion_s = 0.0;   ///< on the service trace clock
  std::uint32_t preemptions = 0;

  [[nodiscard]] double latency_s() const { return completion_s - arrival_s; }
};

/// Reference execution: the whole job on a private chip with a private
/// cache, start to finish. The scheduler's per-job ledgers must match
/// this bit for bit.
[[nodiscard]] JobResult run_job_solo(const JobSpec& spec,
                                     pim::ChipConfig chip,
                                     std::size_t threads = 1);

}  // namespace wavepim::service
