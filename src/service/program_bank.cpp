#include "service/program_bank.h"

#include "mesh/structured_mesh.h"

namespace wavepim::service {

std::shared_ptr<const mapping::ProgramCache> ProgramBank::cache_for(
    const JobSpec& spec) {
  const Key key = key_of(spec);
  std::lock_guard lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    // Lowering happens under the bank lock: one writer per class. Built
    // entries are immutable, so tenants replay them without a lock.
    const mesh::StructuredMesh mesh(spec.refinement_level, 1.0,
                                    spec.boundary);
    it = entries_.emplace(key, std::make_shared<Entry>(spec, mesh)).first;
    ++builds_;
  } else {
    ++hits_;
  }
  // Aliasing pointer: shares the Entry's lifetime, points at its cache.
  return {it->second, &it->second->cache};
}

std::uint64_t ProgramBank::builds() const {
  std::lock_guard lock(mutex_);
  return builds_;
}

std::uint64_t ProgramBank::hits() const {
  std::lock_guard lock(mutex_);
  return hits_;
}

}  // namespace wavepim::service
