#pragma once

// Test helper: a job stream built to force preemption on one chip. A
// long deadline-free job arrives first, then three urgent one-step jobs
// of the same shape class, all before the long job's first quantum
// ends. Under Srs/Edf the long job must park at a step boundary and
// resume later.

#include <cstdint>
#include <vector>

#include "service/job.h"

namespace wavepim::service {

inline std::vector<JobSpec> preemption_specs() {
  std::vector<JobSpec> specs;
  JobSpec lng;
  lng.id = 0;
  lng.arrival_s = 0.0;
  lng.kind = dg::ProblemKind::Acoustic;
  lng.expansion = mapping::ExpansionMode::None;
  lng.steps = 6;
  lng.state_seed = 17;
  specs.push_back(lng);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.arrival_s = 1.0e-12 * static_cast<double>(i);  // before any quantum
    spec.kind = dg::ProblemKind::Acoustic;
    spec.expansion = mapping::ExpansionMode::None;
    spec.steps = 1;
    spec.deadline_s = 1.0e-6 * static_cast<double>(i);
    spec.state_seed = 100 + i;
    specs.push_back(spec);
  }
  return specs;
}

}  // namespace wavepim::service
