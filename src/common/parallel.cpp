#include "common/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/error.h"
#include "trace/trace.h"

namespace wavepim {

namespace {

/// True while the current thread runs a share of a fan-out (any pool's),
/// as a worker or as a caller: nested parallel_for calls then run inline.
thread_local bool t_in_share = false;

/// Worker count requested via set_global_threads; 0 = no request.
std::atomic<std::size_t> g_requested_threads{0};
/// Latched once the global pool has been constructed.
std::atomic<bool> g_global_created{false};

/// Polls before a wait parks: spans the serial work between step fan-outs.
constexpr int kSpins = 1 << 13;

/// Waits until `a` no longer holds `old` and returns its new value.
std::uint32_t await_change(const std::atomic<std::uint32_t>& a,
                           std::uint32_t old, bool spin) {
  for (int i = 0; spin && i < kSpins; ++i) {
    if (const std::uint32_t v = a.load(std::memory_order_acquire); v != old) {
      return v;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  a.wait(old, std::memory_order_acquire);
  return a.load(std::memory_order_acquire);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
    : size_(num_threads != 0
                ? num_threads
                : std::max(1U, std::thread::hardware_concurrency())),
      spin_(size_ <= std::thread::hardware_concurrency()) {
  for (std::size_t i = 1; i < size_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1);
  generation_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

// An odd generation is an open fan-out, an even one closed. A worker joins
// `active_`, then checks the fan-out is still the one it woke for. Both
// sides are sequentially consistent, so either the caller's wait sees the
// join, or the worker sees the close and leaves without reading anything.
void ThreadPool::worker_loop() {
  t_in_share = true;
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(generation_, seen, spin_);
    if (stop_.load(std::memory_order_relaxed)) {
      return;
    }
    active_.fetch_add(1);
    if ((seen & 1) != 0 && generation_.load() == seen) {
      run_share();
    }
    if (active_.fetch_sub(1) == 1) {
      active_.notify_one();
    }
  }
}

void ThreadPool::run_share() {
  for (;;) {
    const std::size_t begin = cursor_.fetch_add(grain_);
    if (begin >= n_ || failed_.load(std::memory_order_relaxed)) {
      return;
    }
    const std::size_t end = std::min(n_, begin + grain_);
    try {
      // Closed before the share reports completion: once the caller
      // returns it may stop tracing and export every thread's ring.
      const trace::Span chunk_span("pool.chunk",
                                   static_cast<double>(end - begin));
      for (std::size_t i = begin; i < end; ++i) {
        (*fn_)(i);
      }
    } catch (...) {
      if (!failed_.exchange(true, std::memory_order_relaxed)) {
        error_ = std::current_exception();
      }
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  trace::Span span("pool.parallel_for", static_cast<double>(n));
  if (size_ == 1 || n < 2 || t_in_share) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  const std::lock_guard lock(fan_out_);
  fn_ = &fn;
  n_ = n;
  grain_ = std::max<std::size_t>(1, n / (4 * size_));
  cursor_.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1);  // open
  generation_.notify_all();
  t_in_share = true;
  run_share();
  t_in_share = false;
  // Every index is claimed; once the active workers leave, all have run.
  generation_.fetch_add(1);  // close
  for (std::uint32_t left = active_.load(); left != 0;
       left = await_change(active_, left, spin_)) {
  }
  if (failed_.exchange(false, std::memory_order_relaxed)) {
    std::rethrow_exception(std::exchange(error_, nullptr));
  }
}

std::size_t ThreadPool::parse_thread_count(const char* value) {
  if (value == nullptr || *value == '\0') {
    return 0;
  }
  // Digits only: strtoull would silently accept "-1" (wrapping to a huge
  // count) and whitespace.
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      return 0;
    }
  }
  const unsigned long long n = std::strtoull(value, nullptr, 10);
  // A count beyond any plausible machine is a typo, not a request.
  constexpr unsigned long long kMaxThreads = 4096;
  return n <= kMaxThreads ? static_cast<std::size_t>(n) : 0;
}

void ThreadPool::set_global_threads(std::size_t num_threads) {
  WAVEPIM_REQUIRE(!g_global_created.load(std::memory_order_acquire),
                  "the global thread pool already exists; set the worker "
                  "count before its first use");
  g_requested_threads.store(num_threads, std::memory_order_release);
}

ThreadPool& ThreadPool::global() {
  // Magic static: concurrent first callers block until one thread finishes
  // construction, so the pool is built exactly once.
  static ThreadPool pool([] {
    g_global_created.store(true, std::memory_order_release);
    const std::size_t requested =
        g_requested_threads.load(std::memory_order_acquire);
    if (requested != 0) {
      return requested;
    }
    return parse_thread_count(std::getenv("WAVEPIM_NUM_THREADS"));
  }());
  return pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(n, fn);
}

}  // namespace wavepim
