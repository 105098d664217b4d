#pragma once

#include <cstddef>
#include <cstdint>

namespace wavepim::pim {

/// Process-wide storage arena for FP32 column data — one reserved,
/// lazily-committed virtual mapping that backs the residency layer's
/// host backing stores, in the style of a PIM simulator's up-front
/// physical-memory reservation (PhysmemInit): reserve the address range
/// once, let the OS commit pages on first touch, and recycle fixed-size
/// slots through free lists instead of paying an allocator round-trip
/// per store.
///
/// Why it exists: a batched over-capacity run keeps the whole virtual
/// state of a huge mesh in one backing store, of which a step touches a
/// window at a time; the mapping commits only the pages written. Block
/// storage does not use it: blocks are a few KiB at their row extent
/// (see pim::Block), and a plain allocation runs the word and compiled
/// steps at least as fast as an arena slot.
///
/// Semantics the rest of the system relies on:
///  * `allocate(n)` returns an n-float buffer of ZEROS — fresh mappings
///    are zero pages, recycled slots are cleared before reuse — so it is
///    a drop-in for `std::vector<float>(n)` / `new float[n]()`.
///  * Slots are page-aligned (4 KiB).
///  * Platforms without mmap, and requests that exceed the reservation,
///    get a plain `new float[n]()`. Either path yields bit-identical
///    simulation state — the arena is a storage substrate, invisible to
///    the cost model and the hashes.
///  * The singleton is intentionally leaked: buffers released from
///    static or thread_local destructors must find the arena alive at
///    any shutdown order.
class FloatArena {
 public:
  /// Owning handle for one allocation; movable. Arena-backed buffers
  /// return their slot to the free list on destruction, heap-backed
  /// ones delete[].
  class Buffer {
   public:
    Buffer() = default;
    Buffer(Buffer&& other) noexcept;
    Buffer& operator=(Buffer&& other) noexcept;
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;
    ~Buffer();

    [[nodiscard]] float* data() { return data_; }
    [[nodiscard]] const float* data() const { return data_; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool from_arena() const { return from_arena_; }
    float& operator[](std::size_t i) { return data_[i]; }
    const float& operator[](std::size_t i) const { return data_[i]; }

   private:
    friend class FloatArena;
    Buffer(float* data, std::size_t size, bool from_arena)
        : data_(data), size_(size), from_arena_(from_arena) {}

    void reset();

    float* data_ = nullptr;
    std::size_t size_ = 0;
    bool from_arena_ = false;
  };

  struct Stats {
    std::uint64_t recycled = 0;  ///< arena slots reused via free list
  };

  /// The process-wide arena (leaked; see class comment).
  static FloatArena& instance();

  /// Zero-filled n-float buffer; arena-backed when the mapping exists
  /// and the reservation has room, heap-backed otherwise.
  [[nodiscard]] Buffer allocate(std::size_t n);

  [[nodiscard]] Stats stats() const;
  /// Whether the reserved mapping exists on this platform/run.
  [[nodiscard]] bool mapped() const { return base_ != nullptr; }

 private:
  FloatArena();
  ~FloatArena() = delete;  // leaked singleton

  void release(float* data, std::size_t n);

  struct Impl;
  Impl* impl_;          ///< mutex + free lists + counters
  float* base_ = nullptr;
  std::size_t capacity_floats_ = 0;
};

}  // namespace wavepim::pim
