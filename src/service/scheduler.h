#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "pim/params.h"
#include "service/job.h"

namespace wavepim::service {

/// Scheduling policies over the pending queue.
///
///  * Fifo — arrival order, non-preemptive: a bound job keeps its chip
///    until done. The baseline.
///  * Srs — shortest remaining steps first; preemptive at time-step
///    boundaries (a long job parks when a shorter one is waiting).
///  * Edf — earliest deadline first (deadline-free jobs sort last, then
///    by arrival); preemptive at time-step boundaries.
enum class Policy : std::uint8_t { Fifo, Srs, Edf };

[[nodiscard]] const char* to_string(Policy policy);
[[nodiscard]] std::optional<Policy> parse_policy(std::string_view name);

struct ServiceOptions {
  std::uint32_t num_chips = 1;
  Policy policy = Policy::Fifo;
  /// Worker count per bound tenant simulation (PimSimulation semantics:
  /// 1 is serial, 0 the global pool; a parked tenant drops to 1). Applies
  /// when one chip steps alone: when several do, their quanta fan out on
  /// the global pool and each runs its loops inline. Never affects
  /// results.
  std::size_t threads = 1;
  pim::ChipConfig chip = pim::chip_512mb();
};

/// Fleet-level interconnect aggregates, folded over every tenant's
/// NetStats ledger. `serial_s` vs `time_s` exposes the path-parallelism
/// the fabric extracted (the overlap factor the per-job ledgers price
/// in but never used to surface); the stall/utilization/queue block
/// folds the tenants' link statistics.
struct NetSummary {
  double serial_s = 0.0;   ///< sum of isolated transfer latencies
  double time_s = 0.0;     ///< modelled network channel time (with overlap)
  std::uint64_t transfers = 0;
  std::uint64_t words = 0;
  /// serial_s / time_s (1.0 when no traffic): mean transfers in flight.
  [[nodiscard]] double overlap() const {
    return time_s > 0.0 ? serial_s / time_s : 1.0;
  }
  // Link queuing aggregates.
  double stall_s = 0.0;          ///< total per-transfer queue wait
  double max_utilization = 0.0;  ///< busiest link of any drain
  std::uint64_t peak_queue = 0;  ///< deepest per-link queue seen
};

/// What one service run reports: every job's result (bit-identical to
/// its solo run) plus fleet-level statistics.
struct ServiceReport {
  std::vector<JobResult> jobs;  ///< sorted by job id
  double makespan_s = 0.0;      ///< last completion on the trace clock
  double latency_p50_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_mean_s = 0.0;
  double chip_utilization = 0.0;  ///< busy chip-seconds / (chips x makespan)
  std::uint32_t max_queue_depth = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t cache_builds = 0;  ///< distinct shape classes lowered
  std::uint64_t cache_hits = 0;    ///< jobs that reused a lowered class
  NetSummary net;  ///< interconnect traffic across the whole fleet
};

/// Discrete-event multiplexer of a job stream over `num_chips` chip
/// slots.
///
/// Each job builds one PimSimulation (on a chip of its own, from
/// `ServiceOptions::chip`) at its first bind and keeps it to completion;
/// a chip slot is a scheduling index that says which job may step.
/// Virtual time: the trace clock advances by each quantum's modelled
/// duration (the delta of costs().total().time across one sim.step), so
/// scheduling decisions depend only on the deterministic cost model —
/// never on host wall-clock — and a run is reproducible for any host
/// thread count. One quantum is one full time step; preemption happens
/// only at quantum boundaries, where a parked job simply stops stepping
/// until a slot binds it again. Quanta due at the same virtual instant
/// execute host-parallel across slots (distinct simulations; the shared
/// ProgramBank is internally synchronized); ties break on (chip index,
/// job id).
///
/// Bit-identity contract: every job's final field hash and per-channel
/// ledgers (pim volume/flux/integration, network, hbm) and link
/// statistics equal `run_job_solo` of the same spec: a job runs the
/// solo run's steps on one simulation, parked or not.
class Scheduler {
 public:
  explicit Scheduler(ServiceOptions options) : options_(options) {}

  /// Runs the stream to completion and reports. Jobs may arrive in any
  /// order; results come back sorted by id.
  [[nodiscard]] ServiceReport run(std::vector<JobSpec> specs);

 private:
  ServiceOptions options_;
};

}  // namespace wavepim::service
