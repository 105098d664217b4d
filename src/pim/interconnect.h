#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pim/arith.h"
#include "pim/params.h"

namespace wavepim::pim {

/// One inter-block transfer request (§4.2): `words` 32-bit words from the
/// row/column buffer of `src_block` to `dst_block`. Block ids are global
/// on the chip; the tile is id / 256.
struct Transfer {
  std::uint32_t src_block = 0;
  std::uint32_t dst_block = 0;
  std::uint32_t words = 0;
};

/// A batch of transfers read by index: `size()` transfers, the i-th made
/// by `operator[](i)`. The view either reads a stored list (the span
/// constructor) or generates each transfer from a compact description of
/// the batch, so that a large batch never has to sit in memory as a list
/// (mapping::RecipeBatch). Either way it does not own what it reads.
class TransferView {
 public:
  /// Makes transfer `i` of the batch that `source` describes.
  using Generator = Transfer (*)(const void* source, std::size_t i);

  TransferView(std::size_t size, const void* source, Generator generate)
      : size_(size), source_(source), generate_(generate) {}
  explicit TransferView(std::span<const Transfer> transfers)
      : size_(transfers.size()), list_(transfers.data()) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] Transfer operator[](std::size_t i) const {
    // A stored list is read in place, without a call per transfer.
    return list_ != nullptr ? list_[i] : generate_(source_, i);
  }

 private:
  std::size_t size_;
  const Transfer* list_ = nullptr;  ///< the stored list; null if generated
  const void* source_ = nullptr;
  Generator generate_ = nullptr;
};

/// Per-link aggregates of one scheduled batch, produced by the cycle
/// backend (`has_link_stats` below). "Link" means one contended resource
/// of the fabric: an H-tree switch or a tile's bus switch.
struct LinkStats {
  std::uint32_t links_used = 0;  ///< resources that carried any traffic
  /// Busy-time fraction of the busiest link over the batch makespan,
  /// normalised by its channel count: busy / (capacity * makespan).
  double max_utilization = 0.0;
  /// Mean of the same fraction over the links used.
  double mean_utilization = 0.0;
  /// Total queue wait: sum over transfers of (start time - arrival). All
  /// transfers of a batch arrive together, so this is the FIFO
  /// head-of-line cost the analytic model cannot see.
  Seconds stall_time;
  /// Deepest per-link waiting queue (= the peak concurrent demand on the
  /// most oversubscribed link).
  std::uint32_t peak_queue = 0;
};

/// Result of scheduling a batch of transfers.
struct ScheduleResult {
  Seconds makespan;    ///< completion time with path contention
  Seconds serial_sum;  ///< sum of isolated latencies (no-overlap bound)
  Joules energy;
  bool has_link_stats = false;  ///< set by the cycle backend
  LinkStats links;

  [[nodiscard]] double overlap_factor() const {
    return makespan.value() > 0.0 ? serial_sum.value() / makespan.value()
                                  : 1.0;
  }
};

class Interconnect;

/// Timing backend: prices one phase's transfer batch over the fabric's
/// shared resources. Backends are stateless (all per-batch state lives in
/// the schedule call), so the two implementations are process singletons
/// and an Interconnect just points at one.
///
/// Invariants every backend must keep (pinned by
/// tests/pim/net_backend_test.cpp):
///  - `serial_sum` is the sum of isolated latencies and `energy` the sum
///    of transfer energies — order-independent, so identical across
///    backends up to summation order.
///  - `makespan <= serial_sum` (+ one transfer's latency of slack for an
///    empty batch: both are zero).
///  - A single-transfer batch completes in its isolated latency, and a
///    batch of fully path-disjoint transfers in the max of theirs —
///    queuing can only matter when paths share a resource.
class NetBackend {
 public:
  virtual ~NetBackend() = default;

  [[nodiscard]] virtual NetBackendKind kind() const = 0;
  [[nodiscard]] virtual ScheduleResult schedule(
      const Interconnect& net, TransferView transfers) const = 0;
};

/// The greedy list-scheduler (the original model, default): transfers are
/// issued in `release_order`, each claiming the earliest-free channel of
/// every switch on its path. Contention-aware but queue-free: a transfer
/// may start in a channel that frees *before* earlier-issued traffic
/// elsewhere on its path would really have let it through. Each switch
/// keeps its channels' free times in a min-heap, allocated on first
/// touch. Bit-identical to the pre-seam `Interconnect::schedule`, so all
/// committed baselines stand.
class AnalyticBackend final : public NetBackend {
 public:
  [[nodiscard]] NetBackendKind kind() const override {
    return NetBackendKind::Analytic;
  }
  [[nodiscard]] ScheduleResult schedule(
      const Interconnect& net, TransferView transfers) const override;
};

/// Event-driven backend: every transfer of the batch arrives at t = 0 (the
/// controller releases a phase's transfer list at once, level-ordered
/// and de-correlated by the micro-sequencer — the same release order the
/// analytic scheduler issues in) and waits in a FIFO queue at each
/// switch of its path, ordered by release. A switch with k channels
/// grants them FIFO with free-channel bypass: a transfer starts once it
/// sits within the first (capacity - busy) waiting entries of *every*
/// queue on its path — a blocked head may be overtaken, but only onto a
/// channel it is not itself waiting for (cut-through). Completions free
/// the channels and re-arm the queues. The single-channel bus
/// degenerates to strict head-of-line FIFO and collapses to
/// near-serial under flux traffic, while the fat-tree H-tree keeps its
/// subtrees draining concurrently — Fig. 14's result, derived rather
/// than assumed. Produces LinkStats (`has_link_stats`).
///
/// Determinism: start decisions are drained from a candidate pool in
/// release-rank order (a total order), so the outcome is independent of
/// which completion event exposed a candidate; completion events
/// tie-break on transfer index.
class CycleBackend final : public NetBackend {
 public:
  [[nodiscard]] NetBackendKind kind() const override {
    return NetBackendKind::Cycle;
  }
  [[nodiscard]] ScheduleResult schedule(
      const Interconnect& net, TransferView transfers) const override;
};

/// The order in which the central controller's micro-sequencer releases
/// a batch, shared by both backends: short (leaf-local) paths first, then
/// progressively wider ones, with a deterministic pseudo-random shuffle
/// inside each class. Naive mesh-order issue chains every transfer
/// through the switch it shares with its predecessor, collapsing the
/// network's parallelism to near-serial (and FIFO queues turn that
/// correlation into head-of-line serialisation); level-ordered,
/// de-correlated issue approaches the per-switch load bound instead.
///
/// Returns transfer indices sorted by the key
/// (hop count << 56 | low 56 bits of SplitMix64(index)), equal keys in
/// index order.
std::vector<std::uint32_t> release_order(const Interconnect& net,
                                         TransferView transfers);
inline std::vector<std::uint32_t> release_order(
    const Interconnect& net, std::span<const Transfer> transfers) {
  return release_order(net, TransferView(transfers));
}

/// The process singleton for a backend kind.
const NetBackend& net_backend_for(NetBackendKind kind);

/// Circuit-switched inter-block interconnect of one Wave-PIM chip.
///
/// H-tree: each 256-block tile has a 4-ary switch tree (64 S0 + 16 S1 +
/// 4 S2 + 1 S3 = 85 switches, Table 3); a transfer occupies every switch
/// on its path for its whole duration, so transfers with disjoint paths
/// proceed concurrently (Fig. 3 top).
///
/// Bus: one central switch per tile; all transfers in a tile serialise
/// (Fig. 3 bottom).
///
/// Transfers that cross tiles additionally traverse a single shared
/// chip-level channel through the central controller.
///
/// The class owns the *resource model* (paths, per-switch channel
/// capacities, isolated latency/energy); *when* each transfer of a batch
/// moves is delegated to the NetBackend selected by
/// `ChipConfig::net_backend`.
class Interconnect {
 public:
  explicit Interconnect(const ChipConfig& config, LinkParams link = {});

  [[nodiscard]] Topology topology() const { return config_.topology; }
  [[nodiscard]] const ChipConfig& config() const { return config_; }
  [[nodiscard]] const LinkParams& link() const { return link_; }
  [[nodiscard]] NetBackendKind backend_kind() const {
    return config_.net_backend;
  }

  /// Number of switch hops between two blocks: up to the lowest common
  /// switch and back down within a tile, both tiles' full switch chains
  /// across tiles. The chip-level channel a cross-tile transfer also
  /// crosses is priced separately (isolated_latency, transfer_energy).
  [[nodiscard]] std::uint32_t hop_count(std::uint32_t src,
                                        std::uint32_t dst) const;

  /// Latency of a transfer with no contention.
  [[nodiscard]] Seconds isolated_latency(const Transfer& t) const;

  /// Switch + channel energy of one transfer.
  [[nodiscard]] Joules transfer_energy(const Transfer& t) const;

  /// Prices the transfer batch through the configured backend and
  /// returns makespan/energy (plus link stats under the cycle backend,
  /// also exported as `net.link.*` trace counters).
  [[nodiscard]] ScheduleResult schedule(TransferView transfers) const;
  [[nodiscard]] ScheduleResult schedule(
      std::span<const Transfer> transfers) const {
    return schedule(TransferView(transfers));
  }

  // --- Resource model (shared by the backends, pinned by unit tests) ----

  /// Resource ids occupied by a transfer's path. An H-tree self-transfer
  /// (src == dst) has an empty path — the row buffer moves the words
  /// without entering the switch fabric — while a bus self-transfer still
  /// claims the tile's single switch (the row buffer drives the shared
  /// medium).
  void path_resources(const Transfer& t,
                      std::vector<std::uint32_t>& out) const;

  [[nodiscard]] std::uint32_t num_resources() const;

  /// Concurrent channels of a switch: 1 for the bus's single data path,
  /// 4^level for H-tree switches (fat-tree-style link widening).
  [[nodiscard]] std::uint32_t resource_capacity(std::uint32_t resource) const;

 private:
  ChipConfig config_;
  LinkParams link_;
  const NetBackend* backend_ = nullptr;
  // Derived H-tree geometry (supports the §4.2.1 configurable arity).
  std::uint32_t shift_ = 2;              ///< log2(arity)
  std::uint32_t levels_ = 4;             ///< tree levels above the blocks
  std::uint32_t switches_per_tile_ = 85;
  std::vector<std::uint32_t> level_offset_;
};

}  // namespace wavepim::pim
