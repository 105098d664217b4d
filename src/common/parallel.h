#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace wavepim {

/// A small fixed-size thread pool.
///
/// The CPU reference dG solver and the PIM functional simulator use it for
/// element-parallel loops.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means `hardware_concurrency()`. A
  /// one-worker pool runs every loop inline on the caller, so it starts
  /// no thread at all.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Runs `fn(i)` for i in [0, n), split into contiguous chunks across the
  /// pool, and blocks until all iterations complete. Runs inline when the
  /// pool has a single worker or `n` is small.
  ///
  /// Reentrancy: a `parallel_for` issued from inside a pool worker (any
  /// pool's) runs inline on that worker. Nested fan-outs would otherwise
  /// deadlock once every worker blocks waiting on chunks that only the
  /// blocked workers could run.
  ///
  /// Exceptions: if `fn` throws, the loop still completes the chunks
  /// already enqueued (their captured state must stay valid), then
  /// rethrows one of the captured exceptions — the first one observed —
  /// to the caller. A chunk stops at its first throwing iteration, so
  /// some iterations may not run. The pool itself stays usable.
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
  /// hardware". Exposed for testability; `global()` applies it to the
  /// actual environment variable.
  [[nodiscard]] static std::size_t parse_thread_count(const char* value);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::size_t size_;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Convenience wrapper over the global pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace wavepim
