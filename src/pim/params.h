#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/units.h"

namespace wavepim::pim {

/// Basic digital-PIM operation energy and time constants (paper Table 4,
/// referenced from FloatPIM).
struct BasicOpParams {
  Joules e_set = femtojoules(23.8);
  Joules e_reset = femtojoules(0.32);
  Joules e_nor = femtojoules(0.29);
  Joules e_search = picojoules(5.34);
  Seconds t_nor = nanoseconds(1.1);
  Seconds t_search = nanoseconds(1.5);

  /// Row-buffer access latencies (read a row into the buffer / write it
  /// back). Modelled at the search latency as in prior digital PIM work.
  [[nodiscard]] Seconds t_row_read() const { return t_search; }
  [[nodiscard]] Seconds t_row_write() const { return t_search; }
  /// Energy of one row-buffer access.
  [[nodiscard]] Joules e_row_access() const { return e_search; }
};

/// Latency of FP32 row-parallel arithmetic in NOR cycles.
///
/// Calibrated so that a 2 GB chip (16.7M parallel row lanes) sustains the
/// paper's Table 2 peak of ~7.25 TFLOP/s on a 50% add / 50% multiply mix:
/// avg = (1200 + 3000)/2 = 2100 cycles -> 2.31 us -> 7.26 TFLOP/s.
struct ArithLatency {
  std::uint32_t fadd_cycles = 1200;
  std::uint32_t fsub_cycles = 1250;
  std::uint32_t fmul_cycles = 3000;
  /// Column-to-column copy: 2 NOR cycles (NOT-NOT) per bit.
  std::uint32_t copy_cycles = 64;
  /// Compare (used by index generation): bit-serial subtract + sign test.
  std::uint32_t fcmp_cycles = 700;
};

/// Per-component power (paper Table 3, Synopsys PrimeTime numbers).
struct ComponentPower {
  double crossbar_w = 6.14e-3;
  double sense_amp_w = 2.38e-3;
  double decoder_w = 0.31e-3;
  double htree_switch_total_w = 107.13e-3;  ///< all 85 switches of a tile
  double bus_switch_w = 17.2e-3;
  double central_controller_w = 6.41;
  double cpu_host_w = 3.06;
  double hbm_w = 36.91;  ///< off-chip HBM2 active power [34]

  /// One memory block: crossbar + sense amps + decoder = 8.83 mW.
  [[nodiscard]] double block_w() const {
    return crossbar_w + sense_amp_w + decoder_w;
  }

  /// Table 3 lists 1.57 W for the 256-block tile memory, i.e. an activity
  /// factor below 256 * 8.83 mW; we keep the paper's number by applying
  /// the implied duty factor.
  [[nodiscard]] double tile_memory_w() const { return 1.57; }

  [[nodiscard]] double tile_w(bool htree) const {
    return tile_memory_w() + (htree ? htree_switch_total_w : bus_switch_w);
  }

  /// Residual chip-level power implied by Table 3's totals (115.02 W
  /// H-tree / 109.25 W Bus for 64 tiles + controller): I/O and clocking
  /// not itemised in the table.
  [[nodiscard]] double chip_overhead_w() const { return 1.09; }
};

/// Interconnect link parameters (per 32-bit word per switch hop).
struct LinkParams {
  Seconds hop_latency_per_word = nanoseconds(1.5);
  Joules hop_energy_per_word = picojoules(1.1);
  /// Crossing between tiles adds a traversal of the chip-level channel.
  Seconds inter_tile_latency_per_word = nanoseconds(6.0);
  Joules inter_tile_energy_per_word = picojoules(4.4);
  /// The bus alternative trades its single data path for a wide shared
  /// medium: words moved per bus cycle (§4.2.2 trade-off).
  std::uint32_t bus_words_per_cycle = 4;

  bool operator==(const LinkParams&) const = default;
};

/// Interconnect topology choice inside each memory tile (paper §4.2).
enum class Topology { HTree, Bus };

const char* to_string(Topology t);
/// Parses "htree"/"h-tree"/"bus" (case-sensitive). Returns false on
/// anything else, leaving `out` untouched.
bool parse_topology(const char* s, Topology& out);

/// What Interconnect::schedule reports for a phase's transfer batch
/// (pim/interconnect.h). Both kinds run the same greedy list schedule:
/// each transfer starts at the earliest time its whole path has a free
/// channel slot, so they give the same makespan.
///
///  * `Analytic` — makespan, serial sum and energy. The default; every
///    committed baseline was produced by it.
///  * `Cycle`    — also link utilization, stall time and queue depth,
///    the statistics of the per-link FIFO queues the schedule implies;
///    the sums fold in input order rather than release order.
///
/// The kind touches only the `network` cost channel: fields, compute
/// and hbm ledgers, and the network time, are bit-identical for either
/// choice (pinned by tests/mapping/net_backend_conformance_test.cpp).
enum class NetBackendKind { Analytic, Cycle };

const char* to_string(NetBackendKind k);
/// Parses "analytic"/"cycle". Returns false on anything else, leaving
/// `out` untouched.
bool parse_net_backend(const char* s, NetBackendKind& out);

/// Geometry of one Wave-PIM chip configuration.
///
/// The block is the paper's 1K x 1K crossbar (1 Mb); a tile groups 256
/// blocks (32 MiB); chips differ only in tile count (§7.1).
struct ChipConfig {
  std::string name;
  Bytes capacity = 0;
  Topology topology = Topology::HTree;
  /// Children per H-tree node (§4.2.1: "does not have to be 4; it can be
  /// higher when customizing PIM systems for larger-scale models").
  /// Must divide the 256-block tile into whole levels: 2, 4, or 16.
  std::uint32_t htree_arity = 4;
  /// Optional cap on usable blocks (0 = all of `capacity`). Lets tests
  /// and the CLI under-provision a chip (forcing batched residency)
  /// without changing the tile geometry the interconnect is built from.
  std::uint32_t block_limit = 0;
  /// Timing kind of the chip's interconnect (pricing-only; analytic
  /// unless set, as the tools' --net-backend does).
  NetBackendKind net_backend = NetBackendKind::Analytic;

  static constexpr std::uint32_t kBlockRows = 1024;
  static constexpr std::uint32_t kBlockCols = 1024;
  static constexpr std::uint32_t kWordBits = 32;
  static constexpr std::uint32_t kBlocksPerTile = 256;

  [[nodiscard]] static constexpr Bytes block_bytes() {
    return static_cast<Bytes>(kBlockRows) * kBlockCols / 8;
  }
  [[nodiscard]] static constexpr Bytes tile_bytes() {
    return block_bytes() * kBlocksPerTile;
  }
  [[nodiscard]] static constexpr std::uint32_t words_per_row() {
    return kBlockCols / kWordBits;
  }

  [[nodiscard]] std::uint32_t num_tiles() const {
    return static_cast<std::uint32_t>(capacity / tile_bytes());
  }
  [[nodiscard]] std::uint32_t num_blocks() const {
    const std::uint32_t physical = num_tiles() * kBlocksPerTile;
    return block_limit != 0 && block_limit < physical ? block_limit
                                                      : physical;
  }
  /// Maximum row-parallel FP lanes (paper: "2GB/1,024b = 16M").
  [[nodiscard]] std::uint64_t parallel_lanes() const {
    return static_cast<std::uint64_t>(num_blocks()) * kBlockRows;
  }

  /// H-tree switches per 256-block tile: (256-1)/(arity-1), i.e.
  /// 64 + 16 + 4 + 1 = 85 for the paper's 4-ary tree (Table 3),
  /// 255 for a binary tree, 17 for a 16-ary one.
  [[nodiscard]] std::uint32_t htree_switches_per_tile() const {
    return (kBlocksPerTile - 1) / (htree_arity - 1);
  }

  /// Tree levels above the blocks (4-ary: 4; 16-ary: 2; binary: 8).
  [[nodiscard]] std::uint32_t htree_levels() const {
    std::uint32_t levels = 0;
    for (std::uint32_t span = htree_arity; span <= kBlocksPerTile;
         span *= htree_arity) {
      ++levels;
    }
    return levels;
  }
};

/// The four evaluated capacities (Table 2 / §7.1).
ChipConfig chip_512mb(Topology t = Topology::HTree);
ChipConfig chip_2gb(Topology t = Topology::HTree);
ChipConfig chip_8gb(Topology t = Topology::HTree);
ChipConfig chip_16gb(Topology t = Topology::HTree);

/// All four standard configs in capacity order.
std::array<ChipConfig, 4> standard_chips(Topology t = Topology::HTree);

/// Static power of a whole chip configuration, composed per Table 3
/// (tiles + central controller + residual overhead; host and HBM are
/// accounted separately by the system model).
double chip_static_power_w(const ChipConfig& config,
                           const ComponentPower& power = {});

/// Peak FP32 throughput (ops/s) at a 50/50 add/mul mix — the paper's
/// Table 2 "maximum throughput" methodology.
double peak_throughput_flops(const ChipConfig& config,
                             const ArithLatency& lat = {},
                             const BasicOpParams& ops = {});

/// Process-node scaling suggested by [2, 50] (§7.3): 28 nm -> 12 nm gives
/// 3.81x performance and 2.0x energy improvement.
struct ProcessScaling {
  double speedup = 1.0;
  double energy_saving = 1.0;

  static ProcessScaling node_28nm() { return {1.0, 1.0}; }
  static ProcessScaling node_12nm() { return {3.81, 2.0}; }
};

}  // namespace wavepim::pim
