#include "pim/interconnect.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/error.h"
#include "trace/trace.h"

namespace wavepim::pim {

namespace {

constexpr std::uint32_t kBlocksPerTile = ChipConfig::kBlocksPerTile;

/// Replaces the minimum of a binary min-heap of channel free times by
/// `value` (never below it) and restores the heap order. Plain doubles
/// and a branch-free choice of the smaller child keep the sift cheap:
/// which child is smaller is a coin flip the branch predictor loses.
void replace_top(double* heap, std::uint32_t size, double value) {
  std::uint32_t i = 0;
  for (std::uint32_t child = 1; child < size; child = 2 * i + 1) {
    if (child + 1 < size) {
      child += heap[child + 1] < heap[child] ? 1 : 0;
    }
    const double next = heap[child];
    if (!(next < value)) {
      break;
    }
    heap[i] = next;
    i = child;
  }
  heap[i] = value;
}

/// Low 56 bits of SplitMix64(i): the release order's deterministic,
/// order-independent shuffle inside a hop class.
std::uint64_t release_hash(std::uint64_t i) {
  std::uint64_t h = i + 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h & 0x00FFFFFFFFFFFFFFull;
}

/// Isolated latency and energy of a transfer over a known number of
/// switch hops: the arithmetic behind Interconnect::isolated_latency and
/// transfer_energy, for the schedule loop, which knows the hops already.
struct TransferCost {
  Seconds latency;
  Joules energy;
};

TransferCost transfer_cost(const Interconnect& net, const Transfer& t,
                           std::uint32_t hops) {
  const LinkParams& link = net.link();
  const bool bus = net.topology() == Topology::Bus;
  const bool cross_tile =
      t.src_block / kBlocksPerTile != t.dst_block / kBlocksPerTile;
  // Wormhole pipelining: words stream through the path, so latency is
  // (words + hops) cycles of the per-word hop time. The bus moves
  // several words per cycle over its wide shared medium.
  std::uint32_t cycles = t.words;
  if (bus) {
    cycles = (t.words + link.bus_words_per_cycle - 1) /
             link.bus_words_per_cycle;
  }
  TransferCost cost;
  cost.latency =
      link.hop_latency_per_word * static_cast<double>(cycles + hops);
  cost.energy =
      link.hop_energy_per_word *
      static_cast<double>(static_cast<std::uint64_t>(t.words) * hops);
  if (cross_tile) {
    // The wide bus datapath extends through the chip-level channel.
    const std::uint32_t inter_words = bus ? cycles : t.words;
    cost.latency += link.inter_tile_latency_per_word *
                    static_cast<double>(inter_words);
    cost.energy +=
        link.inter_tile_energy_per_word * static_cast<double>(t.words);
  }
  return cost;
}

}  // namespace

Interconnect::Interconnect(const ChipConfig& config, LinkParams link)
    : config_(config), link_(link) {
  WAVEPIM_REQUIRE(config.num_tiles() > 0, "chip must have at least one tile");
  // Derive the tree geometry from the (configurable, §4.2.1) arity.
  const std::uint32_t arity = config.htree_arity;
  WAVEPIM_REQUIRE(arity == 2 || arity == 4 || arity == 16,
                  "H-tree arity must divide the tile into whole levels");
  shift_ = 0;
  for (std::uint32_t a = arity; a > 1; a >>= 1) {
    ++shift_;
  }
  levels_ = config.htree_levels();
  switches_per_tile_ = config.htree_switches_per_tile();
  WAVEPIM_ASSERT(levels_ <= level_offset_.size(), "too many H-tree levels");
  std::uint32_t offset = 0;
  for (std::uint32_t level = 0; level < levels_; ++level) {
    level_offset_[level] = offset;
    offset += kBlocksPerTile >> (shift_ * (level + 1));
  }
  WAVEPIM_ASSERT(offset == switches_per_tile_, "switch count mismatch");
}

std::uint32_t Interconnect::num_resources() const {
  // The chip-level network between tiles is a crossbar through the
  // central controller: each tile's root port serialises its own traffic
  // but distinct tile pairs proceed concurrently, so the tile switches
  // are the only contended resources.
  const std::uint32_t per_tile =
      config_.topology == Topology::HTree ? switches_per_tile_ : 1;
  return config_.num_tiles() * per_tile;
}

std::uint32_t Interconnect::hop_count(std::uint32_t src,
                                      std::uint32_t dst) const {
  WAVEPIM_REQUIRE(src < config_.num_blocks() && dst < config_.num_blocks(),
                  "block id out of range");
  if (src == dst) {
    return 0;
  }
  const std::uint32_t src_tile = src / kBlocksPerTile;
  const std::uint32_t dst_tile = dst / kBlocksPerTile;

  if (config_.topology == Topology::Bus) {
    // Through the tile's central switch; cross-tile passes both tiles'
    // switches.
    return src_tile == dst_tile ? 2 : 4;
  }

  if (src_tile != dst_tile) {
    // Full ascent of the source tree and full descent of the destination.
    return 2 * levels_;
  }
  const std::uint32_t a = src % kBlocksPerTile;
  const std::uint32_t b = dst % kBlocksPerTile;
  // LCA level: level L switches group arity^(L+1) blocks.
  for (std::uint32_t level = 0; level < levels_; ++level) {
    if ((a >> (shift_ * (level + 1))) == (b >> (shift_ * (level + 1)))) {
      return 2 * level + 1;
    }
  }
  WAVEPIM_ASSERT(false, "same-tile blocks must share the tile root");
}

Seconds Interconnect::isolated_latency(const Transfer& t) const {
  WAVEPIM_REQUIRE(t.words > 0, "transfer must move at least one word");
  return transfer_cost(*this, t, hop_count(t.src_block, t.dst_block)).latency;
}

Joules Interconnect::transfer_energy(const Transfer& t) const {
  return transfer_cost(*this, t, hop_count(t.src_block, t.dst_block)).energy;
}

void Interconnect::path_resources(const Transfer& t,
                                  std::vector<std::uint32_t>& out) const {
  out.clear();
  const std::uint32_t src_tile = t.src_block / kBlocksPerTile;
  const std::uint32_t dst_tile = t.dst_block / kBlocksPerTile;

  if (config_.topology == Topology::Bus) {
    // A bus self-transfer still claims the tile switch: the row buffer
    // drives the shared medium even when the words return to the same
    // block (and the pre-seam scheduler priced it that way).
    out.push_back(src_tile);
    if (dst_tile != src_tile) {
      out.push_back(dst_tile);
    }
    return;
  }

  auto tile_base = [&](std::uint32_t tile) {
    return tile * switches_per_tile_;
  };
  auto push_switch = [&](std::uint32_t tile, std::uint32_t level,
                         std::uint32_t local) {
    out.push_back(tile_base(tile) + level_offset_[level] +
                  (local >> (shift_ * (level + 1))));
  };

  const std::uint32_t a = t.src_block % kBlocksPerTile;
  const std::uint32_t b = t.dst_block % kBlocksPerTile;

  if (src_tile == dst_tile) {
    if (t.src_block == t.dst_block) {
      return;
    }
    // Ascend from src to the LCA switch, descend to dst: the union of the
    // two ancestor chains up to and including the LCA level.
    std::uint32_t lca = 0;
    while ((a >> (shift_ * (lca + 1))) != (b >> (shift_ * (lca + 1)))) {
      ++lca;
    }
    for (std::uint32_t level = 0; level < lca; ++level) {
      push_switch(src_tile, level, a);
      push_switch(dst_tile, level, b);
    }
    push_switch(src_tile, lca, a);
    return;
  }

  // Cross-tile: both full ancestor chains; the inter-tile crossbar leg is
  // latency/energy-priced but not a shared resource.
  for (std::uint32_t level = 0; level < levels_; ++level) {
    push_switch(src_tile, level, a);
    push_switch(dst_tile, level, b);
  }
}

std::uint32_t Interconnect::resource_capacity(std::uint32_t resource) const {
  if (config_.topology == Topology::Bus) {
    // "only one data path can be enabled when using the bus" (§4.2.2).
    return 1;
  }
  // H-tree switches aggregate arity-fold more subtree bandwidth per level
  // (fat-tree-style link widening, the usual VLSI H-tree sizing that the
  // per-tile switch power budget of Table 3 reflects): for the 4-ary
  // tree S0 carries one channel, S1 four, S2 sixteen, S3 sixty-four.
  const std::uint32_t local = resource % switches_per_tile_;
  std::uint32_t level = levels_ - 1;
  for (std::uint32_t l = 0; l + 1 < levels_; ++l) {
    if (local < level_offset_[l + 1]) {
      level = l;
      break;
    }
  }
  return 1u << (shift_ * level);
}

std::vector<std::uint32_t> release_order(const Interconnect& net,
                                         TransferView transfers) {
  const std::size_t n = transfers.size();
  // Pass 1: every transfer's hop class, kept as one byte.
  std::vector<std::uint8_t> hops(n);
  std::array<std::uint32_t, 256> class_size{};
  for (std::uint32_t i = 0; i < n; ++i) {
    const Transfer t = transfers[i];
    hops[i] =
        static_cast<std::uint8_t>(net.hop_count(t.src_block, t.dst_block));
    ++class_size[hops[i]];
  }
  // Each class of m transfers owns bit_ceil(m) / 4 buckets (at least
  // one), addressed by the top bits of its 56-bit hash, so a bucket holds
  // 2-4 entries on average. `first[c]` is class c's first bucket.
  std::array<std::uint32_t, 256> first{};
  std::array<std::uint32_t, 256> shift{};
  std::uint32_t buckets = 0;
  for (std::uint32_t c = 0; c < 256; ++c) {
    const std::uint32_t width =
        std::max(std::bit_ceil(class_size[c]) / 4, 1u);
    first[c] = buckets;
    shift[c] = 56 - static_cast<std::uint32_t>(std::countr_zero(width));
    buckets += class_size[c] == 0 ? 0 : width;
  }
  auto bucket_of = [&](std::uint32_t i) {
    return first[hops[i]] + static_cast<std::uint32_t>(
                                release_hash(i) >> shift[hops[i]]);
  };
  // Pass 2: a stable counting sort by (class, bucket) leaves every bucket
  // in index order. The scatter advances each bucket's start to its end,
  // so afterwards bucket b spans [end[b - 1], end[b]).
  std::vector<std::uint32_t> end(buckets, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t b = bucket_of(i);
    if (b + 1 < buckets) {
      ++end[b + 1];
    }
  }
  for (std::uint32_t b = 1; b < buckets; ++b) {
    end[b] += end[b - 1];
  }
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    order[end[bucket_of(i)]++] = i;
  }
  // A bucket's entries share their class and top hash bits; insertion
  // sort on the hash finishes them, and its stability keeps equal hashes
  // in index order.
  for (std::uint32_t b = 0, lo = 0; b < buckets; lo = end[b++]) {
    for (std::uint32_t p = lo + 1; p < end[b]; ++p) {
      const std::uint32_t i = order[p];
      const std::uint64_t h = release_hash(i);
      std::uint32_t q = p;
      for (; q > lo && release_hash(order[q - 1]) > h; --q) {
        order[q] = order[q - 1];
      }
      order[q] = i;
    }
  }
  return order;
}

namespace {

/// The one scheduling loop behind Interconnect::schedule. `kLinkStats`
/// adds the link bookkeeping; plain pricing compiles without it. Each
/// field matches the event-driven simulation of the per-link queues
/// (every transfer queued at t = 0) bit for bit:
///  - `serial_sum` and `energy` fold in release order, as that model does.
///  - `peak_queue` is the most paths that cross one resource: the model's
///    initial queue length, independent of the schedule.
///  - `stall_time` sums the start times in ascending order. The model
///    adds its clock, which never decreases, at each start; equal start
///    times are equal values, so the order of ties cannot change the sum.
///  - Busy time, behind the utilizations, folds in release order. The
///    model folds it in its start order, which cannot be rebuilt
///    without its event loop. The two orders agreed bit for bit on all
///    of the repository's own traffic; on other batches the
///    utilizations may differ by summation order.
template <bool kLinkStats>
ScheduleResult list_schedule(const Interconnect& net, TransferView transfers) {
  ScheduleResult result{};
  // Each switch's channels as a min-heap of their free times, carved out
  // of one pool on the switch's first touch. A transfer starts when the
  // earliest-free channel of every switch on its path is free, and then
  // holds one such channel of each until it ends. A switch's state is
  // only the multiset of its free times: which of several equal minima a
  // transfer takes cannot change any later start, so no tie rule is
  // needed.
  struct Heap {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;  ///< 0 until first touch
  };
  std::vector<Heap> heaps(net.num_resources());
  std::vector<double> pool;  ///< free times, in seconds
  std::vector<std::uint32_t> path;
  // Link statistics only: per-resource path count and busy time, and
  // every transfer's start time.
  std::vector<std::uint32_t> crossing;
  std::vector<Seconds> busy_time;
  std::vector<double> starts;
  if constexpr (kLinkStats) {
    crossing.assign(heaps.size(), 0);
    busy_time.assign(heaps.size(), Seconds(0.0));
    starts.reserve(transfers.size());
  }
  for (std::uint32_t i : release_order(net, transfers)) {
    const Transfer t = transfers[i];
    WAVEPIM_REQUIRE(t.words > 0, "transfer must move at least one word");
    const TransferCost cost =
        transfer_cost(net, t, net.hop_count(t.src_block, t.dst_block));
    const Seconds duration = cost.latency;
    result.serial_sum += duration;
    result.energy += cost.energy;

    net.path_resources(t, path);
    double start = 0.0;
    for (const std::uint32_t r : path) {
      Heap& heap = heaps[r];
      if (heap.size == 0) {
        heap.begin = static_cast<std::uint32_t>(pool.size());
        heap.size = net.resource_capacity(r);
        pool.resize(pool.size() + heap.size, 0.0);
      }
      start = std::max(start, pool[heap.begin]);
    }
    const Seconds end = Seconds(start) + duration;
    for (const std::uint32_t r : path) {
      replace_top(pool.data() + heaps[r].begin, heaps[r].size, end.value());
      if constexpr (kLinkStats) {
        ++crossing[r];
        busy_time[r] += duration;  // folded in release order
      }
    }
    if constexpr (kLinkStats) {
      starts.push_back(start);
    }
    result.makespan = std::max(result.makespan, end);
  }
  if constexpr (kLinkStats) {
    LinkStats& links = result.links;
    links.peak_queue = *std::max_element(crossing.begin(), crossing.end());
    // Arrival is t = 0, so each transfer's wait is its start time.
    std::sort(starts.begin(), starts.end());
    for (const double start : starts) {
      links.stall_time += Seconds(start);
    }
    // Utilization normalises each link's busy time by its channel count
    // over the batch makespan.
    if (result.makespan > Seconds(0.0)) {
      double util_sum = 0.0;
      for (std::uint32_t r = 0; r < busy_time.size(); ++r) {
        if (busy_time[r] <= Seconds(0.0)) {
          continue;
        }
        ++links.links_used;
        const double util =
            busy_time[r].value() /
            (static_cast<double>(heaps[r].size) * result.makespan.value());
        util_sum += util;
        links.max_utilization = std::max(links.max_utilization, util);
      }
      if (links.links_used > 0) {
        links.mean_utilization =
            util_sum / static_cast<double>(links.links_used);
      }
    }
  }
  return result;
}

}  // namespace

ScheduleResult Interconnect::schedule(TransferView transfers,
                                      bool link_stats) const {
  trace::Span span("net.schedule", static_cast<double>(transfers.size()));
  if (trace::enabled()) {
    std::uint64_t words = 0;
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      words += transfers[i].words;
    }
    trace::counter("net.transfers", static_cast<double>(transfers.size()));
    trace::counter("net.words", static_cast<double>(words));
  }
  ScheduleResult result = link_stats ? list_schedule<true>(*this, transfers)
                                     : list_schedule<false>(*this, transfers);
  if (trace::enabled() && link_stats) {
    trace::counter("net.link.utilization", result.links.max_utilization);
    trace::counter("net.link.stall_cycles",
                   result.links.stall_time.value() /
                       link_.hop_latency_per_word.value());
    trace::counter("net.link.queue_depth",
                   static_cast<double>(result.links.peak_queue));
  }
  return result;
}

}  // namespace wavepim::pim
