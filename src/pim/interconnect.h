#pragma once

#include <array>
#include <bit>
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
/// (mapping::NetBatch). Either way it does not own what it reads.
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

/// Per-link aggregates of one scheduled batch, filled when
/// `Interconnect::schedule` is asked for them. "Link" means one contended
/// resource of the fabric: an H-tree switch or a tile's bus switch.
struct LinkStats {
  std::uint32_t links_used = 0;  ///< resources that carried any traffic
  /// Busy-time fraction of the busiest link over the batch makespan,
  /// normalised by its channel count: busy / (capacity * makespan).
  double max_utilization = 0.0;
  /// Mean of the same fraction over the links used.
  double mean_utilization = 0.0;
  /// Total queue wait: sum over transfers of (start time - arrival). All
  /// transfers of a batch arrive together, so this is the sum of the
  /// start times.
  Seconds stall_time;
  /// Deepest per-link waiting queue: the most paths that cross one link,
  /// all of them queued there at t = 0.
  std::uint32_t peak_queue = 0;
};

/// Result of scheduling a batch of transfers.
struct ScheduleResult {
  Seconds makespan;    ///< completion time with path contention
  Seconds serial_sum;  ///< sum of isolated latencies (no-overlap bound)
  Joules energy;
  LinkStats links;  ///< zero unless link statistics were requested

  [[nodiscard]] double overlap_factor() const {
    return makespan.value() > 0.0 ? serial_sum.value() / makespan.value()
                                  : 1.0;
  }
};

class Interconnect;

/// The order in which the central controller's micro-sequencer releases
/// a batch, the list schedule's issue order: short (leaf-local) paths
/// first, then progressively wider ones, with a deterministic
/// pseudo-random shuffle inside each class. Naive mesh-order issue
/// chains every transfer through the switch it shares with its
/// predecessor, collapsing the network's parallelism to near-serial (and
/// FIFO queues turn that correlation into head-of-line serialisation);
/// level-ordered, de-correlated issue approaches the per-switch load
/// bound instead.
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
/// Transfers that cross tiles additionally pay a chip-level leg through
/// the central controller, priced per word in latency and energy. That
/// leg is not a contended resource: the chip-level network is a crossbar,
/// so a cross-tile transfer contends only for the switches of its two
/// tiles (both full ancestor chains on the H-tree, both tile switches on
/// the bus), and transfers between distinct tile pairs proceed
/// concurrently.
///
/// The class owns the *resource model* (paths, per-switch channel
/// capacities, isolated latency/energy) and the schedule that decides
/// *when* each transfer of a batch moves.
class Interconnect {
 public:
  explicit Interconnect(const ChipConfig& config, LinkParams link = {});

  [[nodiscard]] Topology topology() const { return config_.topology; }
  [[nodiscard]] const ChipConfig& config() const { return config_; }
  [[nodiscard]] const LinkParams& link() const { return link_; }

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

  /// Prices a transfer batch with the list schedule: transfers are issued
  /// in `release_order`, each starting once every switch on its path has
  /// a free channel and holding one channel of each until it ends. Each
  /// switch keeps its channels' free times in a winner tree that also
  /// records which channel holds each subtree's minimum.
  ///
  /// With `link_stats` set the result also carries LinkStats (exported
  /// as the `net.link.*` trace counters); otherwise `links` stays zero.
  /// The request changes no other field: `serial_sum` and `energy` fold
  /// in release order either way, so the two results are bit-equal in
  /// makespan, serial sum and energy.
  ///
  /// The link statistics read the schedule as per-link FIFO queues: every
  /// transfer arrives at t = 0 and queues at each switch of its path in
  /// release order, and a switch with `c` channels, `b` of them busy, may
  /// start any of its first `c - b` waiting entries. Simulated event by
  /// event, those queues start every transfer when the list schedule
  /// does. All transfers arrive together in one release order, and the
  /// window rule lets a later-ranked transfer take a channel only while a
  /// free channel is left for every earlier-ranked waiting entry. So, as
  /// in the list schedule, no transfer is ever delayed by a later-ranked
  /// one. The queue statistics are therefore read off the list schedule
  /// (`list_schedule` in interconnect.cpp says how each field is
  /// computed). tests/pim/link_stats_test.cpp keeps the event-driven
  /// simulation as an oracle and checks every result field against it.
  ///
  /// Invariants (pinned by that test):
  ///  - `serial_sum` is the sum of isolated latencies and `energy` the sum
  ///    of transfer energies, both folded in release order.
  ///  - `makespan <= serial_sum`.
  ///  - A single-transfer batch completes in its isolated latency, and a
  ///    batch of fully path-disjoint transfers in the max of theirs.
  [[nodiscard]] ScheduleResult schedule(TransferView transfers,
                                        bool link_stats = false) const;
  [[nodiscard]] ScheduleResult schedule(std::span<const Transfer> transfers,
                                        bool link_stats = false) const {
    return schedule(TransferView(transfers), link_stats);
  }

  // --- Resource model (pinned by unit tests) ----------------------------

  /// Resource ids occupied by a transfer's path. An H-tree self-transfer
  /// (src == dst) has an empty path — the row buffer moves the words
  /// without entering the switch fabric — while a bus self-transfer still
  /// claims the tile's single switch (the row buffer drives the shared
  /// medium). Throws when a block id is out of range.
  void path_resources(const Transfer& t,
                      std::vector<std::uint32_t>& out) const;

  [[nodiscard]] std::uint32_t num_resources() const;

  /// Concurrent channels of a switch: 1 for the bus's single data path,
  /// 4^level for H-tree switches (fat-tree-style link widening).
  [[nodiscard]] std::uint32_t resource_capacity(std::uint32_t resource) const;

 private:
  /// A path's resource ids: at most both full switch chains of a binary
  /// tree, which has the most levels.
  using Path =
      std::array<std::uint32_t,
                 2 * std::countr_zero(ChipConfig::kBlocksPerTile)>;

  /// Writes the resource ids of a transfer's path to `out` (in
  /// path_resources' order) and returns how many there are. Throws when
  /// a block id is out of range.
  std::uint32_t path(const Transfer& t, Path& out) const;

  /// The schedule loop behind `schedule`; `kLinkStats` adds the link
  /// bookkeeping. Adds the batch's word count to `words`.
  template <bool kLinkStats>
  ScheduleResult list_schedule(TransferView transfers,
                               std::uint64_t& words) const;

  ChipConfig config_;
  LinkParams link_;
  // Derived H-tree geometry (supports the §4.2.1 configurable arity).
  std::uint32_t shift_ = 2;              ///< log2(arity)
  std::uint32_t levels_ = 4;             ///< tree levels above the blocks
  std::uint32_t switches_per_tile_ = 85;
  /// First switch of each level within a tile. Held inline: every path
  /// lookup on every pricing worker reads it, and a separately allocated
  /// table can share a cache line with memory another thread writes.
  /// Arity 2 has the most levels, log2(kBlocksPerTile).
  std::array<std::uint32_t, std::countr_zero(ChipConfig::kBlocksPerTile)>
      level_offset_{};
};

}  // namespace wavepim::pim
