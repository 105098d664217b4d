#include "pim/params.h"

#include <array>
#include <cstring>

#include "common/error.h"

namespace wavepim::pim {

const char* to_string(Topology t) {
  return t == Topology::HTree ? "h-tree" : "bus";
}

bool parse_topology(const char* s, Topology& out) {
  if (std::strcmp(s, "htree") == 0 || std::strcmp(s, "h-tree") == 0) {
    out = Topology::HTree;
    return true;
  }
  if (std::strcmp(s, "bus") == 0) {
    out = Topology::Bus;
    return true;
  }
  return false;
}

const char* to_string(NetBackendKind k) {
  return k == NetBackendKind::Analytic ? "analytic" : "cycle";
}

bool parse_net_backend(const char* s, NetBackendKind& out) {
  if (std::strcmp(s, "analytic") == 0) {
    out = NetBackendKind::Analytic;
    return true;
  }
  if (std::strcmp(s, "cycle") == 0) {
    out = NetBackendKind::Cycle;
    return true;
  }
  return false;
}

namespace {

ChipConfig make_chip(std::string name, Bytes capacity, Topology t) {
  WAVEPIM_ASSERT(capacity % ChipConfig::tile_bytes() == 0,
                 "capacity must be a whole number of tiles");
  ChipConfig c;
  c.name = std::move(name);
  c.capacity = capacity;
  c.topology = t;
  return c;
}

}  // namespace

ChipConfig chip_512mb(Topology t) {
  return make_chip("PIM-512MB", mebibytes(512), t);
}
ChipConfig chip_2gb(Topology t) { return make_chip("PIM-2GB", gibibytes(2), t); }
ChipConfig chip_8gb(Topology t) { return make_chip("PIM-8GB", gibibytes(8), t); }
ChipConfig chip_16gb(Topology t) {
  return make_chip("PIM-16GB", gibibytes(16), t);
}

std::array<ChipConfig, 4> standard_chips(Topology t) {
  return {chip_512mb(t), chip_2gb(t), chip_8gb(t), chip_16gb(t)};
}

double chip_static_power_w(const ChipConfig& config,
                           const ComponentPower& power) {
  const bool htree = config.topology == Topology::HTree;
  double tile_w;
  if (htree) {
    // Table 3's 107.13 mW covers the 85 switches of the 4-ary tree;
    // other arities scale by switch count.
    const double per_switch = power.htree_switch_total_w / 85.0;
    tile_w = power.tile_memory_w() +
             per_switch * config.htree_switches_per_tile();
  } else {
    tile_w = power.tile_w(false);
  }
  return config.num_tiles() * tile_w + power.central_controller_w +
         power.chip_overhead_w();
}

double peak_throughput_flops(const ChipConfig& config, const ArithLatency& lat,
                             const BasicOpParams& ops) {
  const double avg_cycles = 0.5 * (lat.fadd_cycles + lat.fmul_cycles);
  const double avg_latency_s = avg_cycles * ops.t_nor.value();
  return static_cast<double>(config.parallel_lanes()) / avg_latency_s;
}

}  // namespace wavepim::pim
