#pragma once

#include <memory>
#include <vector>

#include "pim/block.h"
#include "pim/hbm.h"
#include "pim/host.h"
#include "pim/interconnect.h"

namespace wavepim::pim {

/// One Wave-PIM chip plus its host CPU and off-chip HBM2: the platform the
/// mapping layer compiles kernels onto.
///
/// Functional block storage is allocated lazily — cost-model-only runs
/// never touch it, so a 16 GB configuration does not require 16 GB of
/// simulation memory. Functional (bit-true) execution is intended for the
/// small validation problems.
class Chip {
 public:
  explicit Chip(ChipConfig config, ArithLatency latency = {},
                BasicOpParams basic = {}, LinkParams link = {});

  [[nodiscard]] const ChipConfig& config() const { return config_; }
  [[nodiscard]] const ArithModel& arith() const { return arith_; }
  [[nodiscard]] const Interconnect& interconnect() const { return network_; }
  [[nodiscard]] const HbmModel& hbm() const { return hbm_; }
  [[nodiscard]] const HostModel& host() const { return host_; }

  /// Functional access to a block; allocates backing storage on first use.
  ///
  /// Thread safety: concurrent calls for *already-allocated* ids are safe
  /// (each returns an independent Block). Allocation itself is not
  /// synchronised — parallel executors must `ensure_blocks` up front.
  [[nodiscard]] Block& block(std::uint32_t id);

  /// Allocates blocks [0, count) eagerly so subsequent `block()` calls are
  /// safe from concurrent workers.
  void ensure_blocks(std::uint32_t count);

  /// Row extent of the blocks this chip allocates (see pim::Block):
  /// Block::kRows until its simulation narrows it, which only while no
  /// block is allocated. Capacity and costs keep the modelled geometry.
  void set_row_extent(std::uint32_t rows);
  [[nodiscard]] std::uint32_t row_extent() const { return row_extent_; }

  [[nodiscard]] bool block_allocated(std::uint32_t id) const;
  [[nodiscard]] std::size_t num_allocated_blocks() const {
    return num_allocated_;
  }

  /// Static power of the chip (Table 3 composition, excludes host & HBM).
  [[nodiscard]] double static_power_w() const;

 private:
  ChipConfig config_;
  ArithModel arith_;
  Interconnect network_;
  HbmModel hbm_;
  HostModel host_;
  /// Indexed by block id; null until first touched. Only the pointers live
  /// here, so even a 16 GB configuration costs ~1 MB until blocks are used.
  std::vector<std::unique_ptr<Block>> blocks_;
  std::size_t num_allocated_ = 0;
  std::uint32_t row_extent_ = Block::kRows;
};

}  // namespace wavepim::pim
