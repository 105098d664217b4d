#include "frontend.h"

#include <cstdio>
#include <cstring>

#include "common/error.h"
#include "common/parallel.h"
#include "common/parse.h"
#include "common/trace_report.h"
#include "trace/export.h"
#include "trace/trace.h"

namespace wavepim::frontend {

void SharedFlags::apply_fabric(pim::ChipConfig& chip) const {
  chip.topology = topology;
  chip.net_backend = net_backend;
}

void SharedFlags::apply(pim::ChipConfig& chip) const {
  apply_fabric(chip);
  chip.block_limit = chip_blocks;
}

void SharedFlags::apply(mapping::PimSimulation& sim) const {
  sim.set_witness_interval(witness);
}

namespace {

Parse bad(const char* message) {
  std::fprintf(stderr, "error: %s\n", message);
  return Parse::Bad;
}

}  // namespace

Parse parse_flag(int argc, char** argv, int& i, unsigned accepted,
                 SharedFlags& flags) {
  const char* arg = argv[i];
  // The value of `arg` if it is the accepted `prefix` flag, else null.
  const auto value = [&](Flag flag, const char* prefix) -> const char* {
    const std::size_t len = std::strlen(prefix);
    return (accepted & flag) != 0 && std::strncmp(arg, prefix, len) == 0
               ? arg + len
               : nullptr;
  };
  const char* v = nullptr;
  const bool threads_arg =
      (accepted & kThreads) != 0 && std::strcmp(arg, "--threads") == 0;
  if (threads_arg || (v = value(kThreads, "--threads=")) != nullptr) {
    if (threads_arg) {
      if (i + 1 >= argc) {
        return bad("--threads wants a value");
      }
      v = argv[++i];
    }
    // Before any library call spins the global pool up.
    const std::size_t n = ThreadPool::parse_thread_count(v);
    if (n == 0) {
      return bad("--threads wants a positive integer");
    }
    ThreadPool::set_global_threads(n);
  } else if ((v = value(kWitness, "--witness=")) != nullptr) {
    if (!parse_u32(v, flags.witness)) {
      return bad("--witness wants a cadence (0 = off)");
    }
  } else if ((v = value(kChipBlocks, "--chip-blocks=")) != nullptr) {
    if (!parse_u32(v, flags.chip_blocks) || flags.chip_blocks == 0) {
      return bad("--chip-blocks wants a positive block count");
    }
  } else if ((v = value(kTopology, "--topology=")) != nullptr) {
    if (!pim::parse_topology(v, flags.topology)) {
      return bad("--topology wants htree or bus");
    }
  } else if ((v = value(kNetBackend, "--net-backend=")) != nullptr) {
    if (!pim::parse_net_backend(v, flags.net_backend)) {
      return bad("--net-backend wants analytic or cycle");
    }
  } else if ((v = value(kTrace, "--trace=")) != nullptr) {
    flags.trace_path = v;
    if (flags.trace_path.empty()) {
      return bad("--trace wants an output path");
    }
  } else {
    return Parse::NotShared;
  }
  return Parse::Consumed;
}

int run(const SharedFlags& flags, const std::function<int()>& body) {
  const std::string& path = flags.trace_path;
  if (!path.empty()) {
    trace::set_enabled(true);
  }
  int rc = 1;
  try {
    rc = body();
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  if (path.empty()) {
    return rc;
  }
  trace::set_enabled(false);
  if (!trace::write_chrome_trace(path)) {
    std::fprintf(stderr, "error: could not write trace to %s\n",
                 path.c_str());
    return rc != 0 ? rc : 1;
  }
  std::printf("\n");
  print_trace_summary(trace::summarize());
  std::printf("trace written to %s\n", path.c_str());
  return rc;
}

}  // namespace wavepim::frontend
