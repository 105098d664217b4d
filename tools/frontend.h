#pragma once

// The command-line front end quickstart, wavepim, wavepim_serve and
// paper_eval share: one parser for the flags they have in common, which
// hands each parsed value to the chips and simulations the program
// builds, and one run wrapper for the trace session and the
// library-error exit code.

#include <cstdint>
#include <functional>
#include <string>

#include "mapping/simulation.h"
#include "pim/params.h"

namespace wavepim::frontend {

/// The shared flags. A program accepts a subset of them, given as a mask;
/// wavepim_serve, for one, has its own --threads=N (threads per tenant)
/// instead of the shared flag.
enum Flag : unsigned {
  kThreads = 1u << 0,     ///< --threads N or --threads=N: sizes the global
                          ///< pool at once
  kWitness = 1u << 1,     ///< --witness=N: witness cadence, 0 = off
  kChipBlocks = 1u << 2,  ///< --chip-blocks=N: positive block cap
  kTopology = 1u << 3,    ///< --topology=htree|bus
  kNetBackend = 1u << 4,  ///< --net-backend=analytic|cycle
  kTrace = 1u << 5,       ///< --trace=FILE: Chrome trace-event JSON
  kAllFlags = (1u << 6) - 1,
};

/// Parsed values of the shared flags. The defaults are the library's, so
/// applying an unflagged set changes nothing.
struct SharedFlags {
  std::uint32_t witness = 0;
  std::uint32_t chip_blocks = 0;  ///< 0 = uncapped
  pim::Topology topology = pim::Topology::HTree;
  pim::NetBackendKind net_backend = pim::NetBackendKind::Analytic;
  std::string trace_path;  ///< empty: no trace

  /// The fabric and its timing kind.
  void apply_fabric(pim::ChipConfig& chip) const;
  /// The fabric, its timing kind and the block cap.
  void apply(pim::ChipConfig& chip) const;
  /// The witness cadence.
  void apply(mapping::PimSimulation& sim) const;
};

enum class Parse {
  NotShared,  ///< not one of the accepted flags
  Consumed,   ///< stored; `i` now indexes the flag's last argument
  Bad,        ///< malformed value, reported on stderr: exit with 2
};

/// Parses argv[i] if it is one of the `accepted` flags.
Parse parse_flag(int argc, char** argv, int& i, unsigned accepted,
                 SharedFlags& flags);

/// Runs the program's work: under a trace session when --trace was given
/// (the Chrome JSON is written and a per-span summary printed after it),
/// with a wavepim::Error reported as "error: <what>" and exit code 1.
/// A trace that cannot be written makes a zero exit code 1.
int run(const SharedFlags& flags, const std::function<int()>& body);

}  // namespace wavepim::frontend
