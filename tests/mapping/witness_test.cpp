// Witness-mode contract (word tier): the bit-serial compiled path
// re-executes checked phases on shadow blocks and hash-compares the
// result against the word kernels. Pinned here: (1) the spot-check
// cadence is honoured exactly (counted via `pim.witness` spans and the
// stats counters), (2) an injected single-bit corruption of live block
// state is caught and attributed with block/step coordinates, and
// (3) witness=off keeps the hot path allocation-free (global
// operator-new counting, the trace-conformance style).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string_view>

#include "common/error.h"
#include "dg/fields.h"
#include "mapping/simulation.h"
#include "trace/trace.h"

namespace {

/// Allocation counter for the zero-allocation assertion. Counting every
/// global new is coarse but deterministic: the steady-state step of a
/// warmed-up witness-off simulation must not allocate at all.
std::atomic<std::uint64_t> g_news{0};

/// Frees what the counting operator new returned. Out of line so that
/// GCC, which knows std::free does not pair with operator new, never
/// sees that pairing through an inlined delete (-Wmismatched-new-delete
/// fires there under the sanitizer build).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace wavepim::mapping {
namespace {

/// Word-tier simulation on the conformance suites' small acoustic mesh.
struct WordSim {
  explicit WordSim(std::uint32_t witness_interval) {
    sim = std::make_unique<PimSimulation>(
        Problem{dg::ProblemKind::Acoustic, 1, 3}, ExpansionMode::None,
        pim::chip_512mb());
    sim->set_exec_path(ExecPath::Word);
    sim->set_num_threads(1);
    sim->set_witness_interval(witness_interval);
    dg::Field u(8, 4, 27);
    u.fill(0.5f);
    sim->load_state(u);
  }
  std::unique_ptr<PimSimulation> sim;
};

/// Number of `pim.witness` spans recorded during one step.
std::uint64_t traced_witness_spans(PimSimulation& sim) {
  trace::Collector::instance().reset();
  trace::set_enabled(true);
  sim.step(1.0e-3);
  trace::set_enabled(false);
  std::uint64_t begins = 0;
  for (const auto& e : trace::Collector::instance().snapshot()) {
    if (e.name != nullptr && std::string_view(e.name) == "pim.witness" &&
        e.type == trace::EventType::Begin) {
      ++begins;
    }
  }
  trace::Collector::instance().reset();
  return begins;
}

TEST(Witness, FullCadenceChecksEveryPhaseApplication) {
  WordSim w(1);
  const std::uint64_t spans = traced_witness_spans(*w.sim);
  const auto& stats = w.sim->witness_stats();
  // Interval 1: one witness span per phase application, and the span
  // count is exactly the stats counter.
  EXPECT_GT(spans, 0u);
  EXPECT_EQ(spans, stats.checks);
  EXPECT_GT(stats.blocks_checked, stats.checks);
  EXPECT_EQ(stats.mismatches, 0u);
}

TEST(Witness, SpotCheckCadenceIsHonouredExactly) {
  // Measure the phase-application count per step at full cadence, then
  // pin the interval-N span count to ceil(phases / N) — the counter
  // starts at zero, so the very first phase is always checked.
  WordSim full(1);
  const std::uint64_t phases = traced_witness_spans(*full.sim);
  ASSERT_GT(phases, 0u);
  for (const std::uint32_t interval : {2u, 3u, 16u}) {
    WordSim spot(interval);
    const std::uint64_t spans = traced_witness_spans(*spot.sim);
    EXPECT_EQ(spans, (phases + interval - 1) / interval)
        << "interval " << interval;
    EXPECT_EQ(spot.sim->witness_stats().mismatches, 0u);
  }
}

TEST(Witness, OffRecordsNoSpansAndNoStats) {
  WordSim off(0);
  EXPECT_EQ(traced_witness_spans(*off.sim), 0u);
  EXPECT_EQ(off.sim->witness_stats().checks, 0u);
  EXPECT_EQ(off.sim->witness_stats().blocks_checked, 0u);
}

TEST(Witness, InjectedCorruptionIsCaughtWithCoordinates) {
  WordSim w(1);
  w.sim->step(1.0e-3);
  ASSERT_EQ(w.sim->witness_stats().mismatches, 0u) << "clean step diverged";

  // Flip the sign bit of word (row 0, col 0) of virtual block 0 in the
  // live state right before the next witness comparison. The witness
  // re-executes from its pre-phase snapshot, so the flipped word can
  // never be reproduced — it must be flagged, attributed to vblock 0.
  w.sim->set_witness_corruption(/*vblock=*/0, /*col=*/0, /*row=*/0);
  w.sim->step(1.0e-3);

  const auto& stats = w.sim->witness_stats();
  EXPECT_GE(stats.mismatches, 1u);
  const auto& mismatches = w.sim->witness_mismatches();
  ASSERT_FALSE(mismatches.empty());
  bool found = false;
  for (const auto& m : mismatches) {
    found = found || m.vblock == 0;
  }
  EXPECT_TRUE(found) << "mismatch not attributed to the corrupted block";
  // Coordinates are populated: RK stages are 0-4 and the schedule step
  // indexes the batch schedule.
  EXPECT_GE(mismatches.front().stage, 0);
  EXPECT_LT(mismatches.front().stage, 5);
}

TEST(Witness, FaultInTheLastStoredWordIsFlaggedOnExactlyThatBlock) {
  WordSim w(1);
  w.sim->step(1.0e-3);
  ASSERT_EQ(w.sim->witness_stats().mismatches, 0u) << "clean step diverged";

  // The chip stores 27 node rows rounded up to 32; the last stored word
  // of a block is (row 31, col 31). No program writes that padding row,
  // so the flip survives to the comparison and is flagged once, on the
  // corrupted block only; later checks snapshot the flipped word.
  const std::uint32_t rows = w.sim->chip().row_extent();
  ASSERT_EQ(rows, 32u);
  const std::uint32_t vblock = 7;  // the last element's block
  w.sim->set_witness_corruption(vblock, pim::Block::kWords - 1, rows - 1);
  w.sim->step(1.0e-3);

  EXPECT_EQ(w.sim->witness_stats().mismatches, 1u);
  const auto& mismatches = w.sim->witness_mismatches();
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_EQ(mismatches.front().vblock, vblock);

  // A fault past the stored rows addresses nothing and is rejected.
  w.sim->set_witness_corruption(vblock, pim::Block::kWords - 1, rows);
  EXPECT_THROW(w.sim->step(1.0e-3), PreconditionError);
}

TEST(Witness, OffAddsZeroAllocationsOnTheHotPath) {
  // The step fan-out allocates a fixed number of task wrappers per step
  // in every tier, so "zero allocations" is measured as a delta: with
  // the witness off, a steady-state step must allocate exactly as much
  // as a never-witnessed twin — the witness machinery neither allocates
  // when disabled nor leaves retained buffers growing after being
  // turned off.
  const auto steady_step_news = [](PimSimulation& sim) {
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    sim.step(1.0e-3);
    return g_news.load(std::memory_order_relaxed) - before;
  };

  WordSim pristine(0);
  pristine.sim->step(1.0e-3);
  pristine.sim->step(1.0e-3);
  const std::uint64_t baseline = steady_step_news(*pristine.sim);

  WordSim toggled(1);
  toggled.sim->step(1.0e-3);  // witness on: snapshots + shadow blocks
  const std::uint64_t with_witness = steady_step_news(*toggled.sim);
  EXPECT_GT(with_witness, baseline)
      << "instrument failure: witnessed step did not allocate more";

  toggled.sim->set_witness_interval(0);
  toggled.sim->step(1.0e-3);  // drain: back to steady state
  EXPECT_EQ(steady_step_news(*toggled.sim), baseline)
      << "witness-off step allocated more than the never-witnessed twin";
  EXPECT_EQ(steady_step_news(*pristine.sim), baseline)
      << "steady-state step count is not stable";
}

}  // namespace
}  // namespace wavepim::mapping
