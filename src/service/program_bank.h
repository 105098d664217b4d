#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "mapping/element_program.h"
#include "mapping/program_cache.h"
#include "service/job.h"

namespace wavepim::service {

/// Process-shared lowered-program store, keyed by shape class: jobs
/// with the same (problem x expansion x boundary) reuse one
/// ProgramCache instead of re-lowering the class streams per tenant.
/// `cache_for` is safe from concurrent pool workers; a class is lowered
/// exactly once (single writer), later tenants take the hit-path.
///
/// The key includes the boundary pattern even though
/// PimSimulation::set_shared_cache cannot check it: boundary changes
/// the element classification and the flux streams, so sharing across
/// boundaries would replay the wrong programs.
class ProgramBank {
 public:
  using Key = std::tuple<dg::ProblemKind, int, int, mapping::ExpansionMode,
                         mesh::Boundary>;

  [[nodiscard]] static Key key_of(const JobSpec& spec) {
    return {spec.kind, spec.refinement_level, spec.n1d, spec.expansion,
            spec.boundary};
  }

  /// The shared cache for this job's shape class, lowering it on first
  /// use. The returned pointer keeps the backing entry (and the
  /// ElementSetup the cache references) alive.
  [[nodiscard]] std::shared_ptr<const mapping::ProgramCache> cache_for(
      const JobSpec& spec);

  /// Lookups that lowered their class, and lookups that found it lowered.
  [[nodiscard]] std::uint64_t builds() const;
  [[nodiscard]] std::uint64_t hits() const;

 private:
  /// Setup and cache live together so the cache's `const ElementSetup&`
  /// never dangles; entries are heap-pinned and immutable once built.
  struct Entry {
    mapping::ElementSetup setup;
    mapping::ProgramCache cache;
    Entry(const JobSpec& spec, const mesh::StructuredMesh& mesh)
        : setup(spec.problem(), spec.expansion, mesh.element_size()),
          cache(setup, mesh, nullptr, nullptr) {}
  };

  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<Entry>> entries_;
  std::uint64_t builds_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace wavepim::service
