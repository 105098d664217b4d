#include "service/job.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "common/float_bits.h"
#include "common/rng.h"

namespace wavepim::service {

std::string JobSpec::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "job%u[%s %u-step]", id,
                problem().name().c_str(), steps);
  return buf;
}

std::vector<JobSpec> generate_jobs(const GeneratorOptions& opt) {
  Rng rng(opt.seed);
  std::vector<JobSpec> jobs;
  jobs.reserve(opt.num_jobs);
  double clock = 0.0;
  for (std::uint32_t i = 0; i < opt.num_jobs; ++i) {
    JobSpec spec;
    spec.id = i;
    // Uniform gaps in [0.5, 1.5) * mean: bursty enough to queue, and no
    // libm call, so the stream is bit-identical across platforms.
    clock += opt.mean_interarrival_s * (0.5 + rng.next_double());
    spec.arrival_s = clock;

    const double physics = rng.next_double();
    if (physics < 0.6) {
      spec.kind = dg::ProblemKind::Acoustic;
      spec.expansion = mapping::ExpansionMode::None;
      // A quarter of the acoustic jobs are the large mesh, so pool
      // residency and program reuse see both shapes.
      spec.refinement_level = rng.next_double() < 0.25 ? 2 : 1;
    } else if (physics < 0.8) {
      spec.kind = dg::ProblemKind::ElasticCentral;
      spec.expansion = mapping::ExpansionMode::Elastic3;
      spec.refinement_level = 1;
    } else {
      spec.kind = dg::ProblemKind::ElasticRiemann;
      spec.expansion = mapping::ExpansionMode::Elastic9;
      spec.refinement_level = 1;
    }
    spec.boundary = rng.next_double() < 0.25 ? mesh::Boundary::Reflective
                                             : mesh::Boundary::Periodic;

    // The retired tier draw: kept so every seeded stream stays the same.
    (void)rng.next_double();

    spec.steps = opt.zero_step_jobs
                     ? 0
                     : 1 + static_cast<std::uint32_t>(rng.next_below(
                               opt.max_steps > 0 ? opt.max_steps : 1));

    // Deadlines scale with the budget; slack varies 1x-5x so EDF has
    // genuinely different urgencies to order by.
    const double deadline_roll = rng.next_double();
    const double slack = (1.0 + 4.0 * rng.next_double()) *
                         static_cast<double>(spec.steps + 1) * 2.0e-5;
    if (deadline_roll < opt.deadline_fraction) {
      spec.deadline_s = spec.arrival_s + slack;
    }

    spec.state_seed = rng.next_u64();
    jobs.push_back(spec);
  }
  return jobs;
}

dg::Field initial_state(const JobSpec& spec,
                        const mapping::PimSimulation& sim) {
  dg::Field u(sim.mesh().num_elements(), sim.setup().problem().num_vars(),
              static_cast<std::size_t>(sim.setup().ref().num_nodes()));
  // The evaluation suite's seeded state, shifted by the job seed: keeps
  // magnitudes in the well-tested range while giving every tenant its
  // own trajectory.
  const std::size_t shift = static_cast<std::size_t>(spec.state_seed % 97);
  for (std::size_t e = 0; e < u.num_elements(); ++e) {
    for (std::size_t v = 0; v < u.num_vars(); ++v) {
      for (std::size_t n = 0; n < u.nodes_per_element(); ++n) {
        u.value(e, v, n) =
            0.01f * static_cast<float>(
                        (e * 131 + v * 17 + n * 3 + shift * 29) % 97) -
            0.25f;
      }
    }
  }
  return u;
}

std::string field_hash(const dg::Field& field) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a_floats(field.flat())));
  return buf;
}

JobResult run_job_solo(const JobSpec& spec, pim::ChipConfig chip,
                       std::size_t threads) {
  mapping::PimSimulation sim(spec.problem(), spec.expansion, std::move(chip),
                             spec.boundary);
  sim.set_num_threads(threads);
  sim.load_state(initial_state(spec, sim));
  for (std::uint32_t s = 0; s < spec.steps; ++s) {
    sim.step(kJobDt);
  }
  const dg::Field out = sim.read_state();

  JobResult result;
  result.id = spec.id;
  result.hash = field_hash(out);
  result.costs = sim.costs();
  result.net = sim.net_stats();
  result.steps_run = spec.steps;
  result.arrival_s = spec.arrival_s;
  result.first_bind_s = spec.arrival_s;
  result.completion_s = spec.arrival_s;
  return result;
}

}  // namespace wavepim::service
