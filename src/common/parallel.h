#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wavepim {

/// A fork-join thread pool: `size() - 1` persistent workers plus the
/// thread that calls `parallel_for`, which runs a share of its own loop.
/// Workers wait on a generation counter (a short spin, then
/// `std::atomic::wait`; never a spin when the pool has more threads than
/// the host has hardware threads). Every participant claims grains of
/// consecutive indices from one cursor in increasing order, so a list
/// sorted largest first is dealt out largest first.
class ThreadPool {
 public:
  /// Sizes the pool to `num_threads` workers, the caller included; 0 means
  /// `hardware_concurrency()`. Starts `num_threads - 1` threads, so a
  /// one-worker pool runs every loop inline and starts no thread at all.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Runs `fn(i)` for i in [0, n) across the pool and blocks until all
  /// iterations complete. Runs inline, in index order, when the pool has
  /// one worker, `n < 2`, or the caller is running a share of a fan-out
  /// (any pool's, as a worker or inside its own call), where fanning out
  /// again could wait on itself. Outside callers of one pool take turns.
  ///
  /// Exceptions: if `fn` throws, no further grain starts; the grains in
  /// flight finish (their captured state must stay valid), then the first
  /// exception observed is rethrown to the caller. A grain stops at its
  /// throwing iteration. The pool itself stays usable.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Global pool shared by library components that do not take an explicit
  /// pool. Created on first use (thread-safe: C++ magic-static guarantees
  /// exactly one construction even under concurrent first access) and sized
  /// from, in priority order: `set_global_threads`, the
  /// `WAVEPIM_NUM_THREADS` environment variable, the hardware.
  static ThreadPool& global();

  /// Requests a worker count for the global pool. Must be called before the
  /// first `global()` use (e.g. at tool startup when parsing `--threads`);
  /// throws PreconditionError once the pool exists, since live workers
  /// cannot be resized.
  static void set_global_threads(std::size_t num_threads);

  /// Parses a `WAVEPIM_NUM_THREADS`-style value: a positive integer maps to
  /// itself, anything else (null, empty, junk, zero) to 0 — "use the
  /// hardware". `global()` applies it to the environment variable.
  [[nodiscard]] static std::size_t parse_thread_count(const char* value);

 private:
  void worker_loop();
  void run_share();

  std::size_t size_;
  bool spin_;  ///< every thread has a hardware thread, so waits spin first
  std::mutex fan_out_;  ///< held by the outside caller of the fan-out
  // The open fan-out: written only while no worker is active.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::size_t grain_ = 1;
  std::exception_ptr error_;  ///< written once, by whoever sets `failed_`
  std::atomic<std::size_t> cursor_{0};  ///< next unclaimed index
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint32_t> active_{0};  ///< workers inside a fan-out
  std::atomic<bool> failed_{false};  ///< reset by the caller's rethrow
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;  ///< last: they use every member above
};

/// Convenience wrapper over the global pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace wavepim
