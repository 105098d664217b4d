#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "common/error.h"
#include "trace/trace.h"

namespace wavepim {

namespace {

/// True while the current thread is a pool worker (any pool). Nested
/// parallel_for calls detect it and run inline — see the header.
thread_local bool t_in_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
    : size_(num_threads != 0
                ? num_threads
                : std::max<std::size_t>(1,
                                        std::thread::hardware_concurrency())) {
  if (size_ == 1) {
    return;
  }
  workers_.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  trace::Span span("pool.parallel_for", static_cast<double>(n));
  const std::size_t workers = size();
  // Inline paths: parallelism wouldn't pay, or we *are* a pool worker
  // (fanning out from inside a worker can deadlock the pool — every
  // worker could end up blocked on chunks only blocked workers would run).
  if (workers <= 1 || n < 2 * workers || t_in_pool_worker) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  const std::size_t chunks = std::min(n, 4 * workers);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;

  // Completion state lives on this frame, so every chunk touches it only
  // under done_mutex: the caller cannot observe `remaining == 0` (and
  // return, releasing the frame) until the last chunk has let go of the
  // lock. `error` keeps the first exception thrown by any chunk; it is
  // rethrown after every chunk has finished, since the chunks capture
  // this frame by reference.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = chunks;
  std::exception_ptr error;

  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(n, begin + chunk_size);
    enqueue([&, begin, end] {
      std::exception_ptr thrown;
      {
        // Closed before the chunk reports completion: once the caller
        // returns it may stop tracing and export every thread's ring.
        trace::Span chunk_span("pool.chunk",
                               static_cast<double>(end - begin));
        try {
          for (std::size_t i = begin; i < end; ++i) {
            fn(i);
          }
        } catch (...) {
          thrown = std::current_exception();
        }
      }
      std::lock_guard lock(done_mutex);
      if (thrown && !error) {
        error = thrown;
      }
      if (--remaining == 0) {
        done_cv.notify_one();
      }
    });
  }

  {
    std::unique_lock lock(done_mutex);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

namespace {

/// Worker count requested via set_global_threads; 0 = no request.
std::atomic<std::size_t> g_requested_threads{0};
/// Latched once the global pool has been constructed.
std::atomic<bool> g_global_created{false};

}  // namespace

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
