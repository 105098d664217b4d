#include "pim/arena.h"

#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define WAVEPIM_ARENA_MMAP 1
#endif

namespace wavepim::pim {
namespace {

/// One reservation covers the residency backing stores with room to
/// spare; MAP_NORESERVE keeps it virtual until a slot's pages are
/// actually touched.
constexpr std::size_t kReserveBytes = std::size_t{1} << 30;  // 1 GiB

/// Slot granularity: whole pages, so lazily-committed pages are never
/// shared between slots and the bump cursor stays 4K-aligned.
constexpr std::size_t kAlignFloats = 4096 / sizeof(float);

[[nodiscard]] std::size_t align_up(std::size_t n) {
  return (n + kAlignFloats - 1) & ~(kAlignFloats - 1);
}

}  // namespace

struct FloatArena::Impl {
  std::mutex mu;
  std::size_t bump = 0;  ///< floats handed out from the cursor
  /// Exact-size free lists: backing stores come in a handful of sizes
  /// per run, so recycling by size keeps the mapping compact without a
  /// general allocator.
  std::unordered_map<std::size_t, std::vector<float*>> free_lists;
  Stats stats;
};

FloatArena::FloatArena() : impl_(new Impl) {
#if defined(WAVEPIM_ARENA_MMAP)
  void* p = ::mmap(nullptr, kReserveBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p != MAP_FAILED) {
    base_ = static_cast<float*>(p);
    capacity_floats_ = kReserveBytes / sizeof(float);
  }
#endif
}

FloatArena& FloatArena::instance() {
  static FloatArena* arena = new FloatArena();  // leaked; see header
  return *arena;
}

FloatArena::Buffer FloatArena::allocate(std::size_t n) {
  if (base_ != nullptr) {
    const std::size_t slot = align_up(n);
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->free_lists.find(slot);
    if (it != impl_->free_lists.end() && !it->second.empty()) {
      float* p = it->second.back();
      it->second.pop_back();
      ++impl_->stats.recycled;
      std::memset(p, 0, n * sizeof(float));
      return Buffer(p, n, true);
    }
    if (impl_->bump + slot <= capacity_floats_) {
      float* p = base_ + impl_->bump;
      impl_->bump += slot;
      return Buffer(p, n, true);  // fresh pages are already zero
    }
  }
  return Buffer(new float[n](), n, false);
}

void FloatArena::release(float* data, std::size_t n) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->free_lists[align_up(n)].push_back(data);
}

FloatArena::Stats FloatArena::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

FloatArena::Buffer::Buffer(Buffer&& other) noexcept
    : data_(other.data_), size_(other.size_), from_arena_(other.from_arena_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.from_arena_ = false;
}

FloatArena::Buffer& FloatArena::Buffer::operator=(Buffer&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = other.data_;
    size_ = other.size_;
    from_arena_ = other.from_arena_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.from_arena_ = false;
  }
  return *this;
}

FloatArena::Buffer::~Buffer() { reset(); }

void FloatArena::Buffer::reset() {
  if (data_ == nullptr) {
    return;
  }
  if (from_arena_) {
    FloatArena::instance().release(data_, size_);
  } else {
    delete[] data_;
  }
  data_ = nullptr;
  size_ = 0;
  from_arena_ = false;
}

}  // namespace wavepim::pim
