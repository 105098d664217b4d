// TraceConformance: pins the tracing contract the rest of the repo
// relies on — (1) at one worker thread the recorded "pim." event
// sequence of a simulation step is deterministic, identical across runs
// AND across both execution tiers (the tiers share span names by
// design, so a trace diff is an execution diff); (2) disabled tracing
// allocates nothing and records nothing.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dg/fields.h"
#include "mapping/simulation.h"
#include "trace/export.h"
#include "trace/trace.h"

namespace wavepim::trace {
namespace {

using SeqEntry = std::pair<std::string, EventType>;

/// Runs one traced simulation step at 1 thread on the given tier (after
/// an untimed warm-up step that builds the cache/plan outside the
/// capture) and returns the "pim."-prefixed (name, type) sequence.
std::vector<SeqEntry> captured_step_sequence(mapping::ExecPath path) {
  const mapping::Problem problem{dg::ProblemKind::Acoustic, 1, 3};
  mapping::PimSimulation sim(problem, mapping::ExpansionMode::None,
                             pim::chip_512mb());
  sim.set_exec_path(path);
  sim.set_num_threads(1);
  dg::Field u(8, 4, 27);
  u.fill(0.5f);
  sim.load_state(u);
  sim.step(1.0e-3);  // warm-up: cache/plan construction stays untraced

  Collector::instance().reset();
  set_enabled(true);
  sim.step(1.0e-3);
  set_enabled(false);

  std::vector<SeqEntry> sequence;
  for (const Event& e : Collector::instance().snapshot()) {
    const std::string name = e.name != nullptr ? e.name : "?";
    if (name.rfind("pim.", 0) == 0) {
      sequence.emplace_back(name, e.type);
    }
  }
  Collector::instance().reset();
  return sequence;
}

/// The pinned step sequence: what any execution tier must record.
std::vector<SeqEntry> expected_step_sequence() {
  std::vector<SeqEntry> seq;
  auto span = [&seq](const char* name, auto body) {
    seq.emplace_back(name, EventType::Begin);
    body();
    seq.emplace_back(name, EventType::End);
  };
  auto leaf = [&span](const char* name) {
    span(name, [] {});
  };
  span("pim.step", [&] {
    for (int stage = 0; stage < 5; ++stage) {
      span("pim.rk_stage", [&] {
        // Resident periodic 2-slice schedule: one load (volume), six
        // compute steps (Y- of slice 1, X, Z, Y+ of slice 0, then the
        // wrap pair Y+ of slice 1 / Y- of slice 0), one store
        // (integration), then settlement and the phase/network drains.
        leaf("pim.volume");
        for (int flux = 0; flux < 6; ++flux) {
          leaf("pim.flux");
        }
        leaf("pim.integration");
        leaf("pim.settle");
        leaf("pim.drain_phase");
        leaf("pim.drain_network");
        leaf("pim.drain_phase");
        leaf("pim.drain_network");
        leaf("pim.drain_phase");
      });
    }
  });
  return seq;
}

TEST(TraceConformance, StepSequenceMatchesPinnedGolden) {
  EXPECT_EQ(captured_step_sequence(mapping::ExecPath::Compiled),
            expected_step_sequence());
}

TEST(TraceConformance, StepSequenceIdenticalAcrossTiers) {
  const auto compiled = captured_step_sequence(mapping::ExecPath::Compiled);
  const auto word = captured_step_sequence(mapping::ExecPath::Word);
  EXPECT_EQ(compiled, word);
}

TEST(TraceConformance, StepSequenceIdenticalAcrossRuns) {
  const auto first = captured_step_sequence(mapping::ExecPath::Compiled);
  const auto second = captured_step_sequence(mapping::ExecPath::Compiled);
  EXPECT_EQ(first, second);
}

TEST(TraceConformance, DisabledModeAllocatesNothing) {
  Collector::instance().reset();
  ASSERT_FALSE(enabled());
  const std::uint64_t buffers_before = TraceBuffer::total_allocated();

  // A fresh thread proves lazy registration: with tracing disabled, its
  // record sites must never materialise a ring buffer.
  std::thread recorder([] {
    for (int i = 0; i < 1000; ++i) {
      Span span("conf.disabled", static_cast<double>(i));
      instant("conf.instant");
      counter("conf.counter", 1.0);
    }
  });
  recorder.join();

  EXPECT_EQ(TraceBuffer::total_allocated(), buffers_before);
  EXPECT_EQ(Collector::instance().num_events(), 0u);
}

TEST(TraceConformance, DisabledStepRecordsNothing) {
  Collector::instance().reset();
  ASSERT_FALSE(enabled());
  const mapping::Problem problem{dg::ProblemKind::Acoustic, 1, 3};
  mapping::PimSimulation sim(problem, mapping::ExpansionMode::None,
                             pim::chip_512mb());
  sim.set_num_threads(1);
  dg::Field u(8, 4, 27);
  u.fill(0.5f);
  sim.load_state(u);
  sim.step(1.0e-3);
  EXPECT_EQ(Collector::instance().num_events(), 0u);
}

}  // namespace
}  // namespace wavepim::trace
