#include "common/parallel.h"

#include <gtest/gtest.h>

#include "common/error.h"

#include <array>
#include <atomic>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace wavepim {
namespace {

TEST(ThreadPool, RunsEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(counts.size(),
                    [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(ThreadPool, HandlesZeroIterations) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> order;
  pool.parallel_for(10, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  // Inline execution preserves order.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

#if defined(__linux__)
// The service scheduler binds every tenant with set_num_threads(1); a
// one-worker pool must not start (and join) a thread it never uses.
TEST(ThreadPool, SingleWorkerPoolStartsNoThread) {
  const auto live_threads = [] {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("Threads:", 0) == 0) {
        return std::stoi(line.substr(8));
      }
    }
    return -1;
  };
  // A sanitizer runtime may start a helper thread of its own at the
  // process's first thread creation (ThreadSanitizer does); create one
  // throwaway thread first so that helper is already counted in `before`.
  std::thread([] {}).join();
  const int before = live_threads();
  ASSERT_GT(before, 0);
  {
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(live_threads(), before);
  }
  {
    // The probe does see workers when a pool has them.
    ThreadPool pool(2);
    EXPECT_EQ(live_threads(), before + 2);
  }
}
#endif

TEST(ThreadPool, SmallNRunsInline) {
  ThreadPool pool(8);
  std::vector<int> touched(3, 0);
  pool.parallel_for(3, [&](std::size_t i) { touched[i] = 1; });
  EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), 3);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(100, [&](std::size_t) { sum.fetch_add(1); });
    ASSERT_EQ(sum.load(), 100);
  }
}

/// Overwrites the stack region the just-returned parallel_for frame
/// occupied, so a chunk still touching that frame's mutex or condition
/// variable finds garbage instead of a look-alike of the next fan-out's.
[[gnu::noinline]] void scribble_stack() {
  unsigned char junk[4096];
  std::memset(junk, 0xA5, sizeof junk);
  asm volatile("" : : "r"(junk) : "memory");
}

TEST(ThreadPool, ManyTinyFanOutsCompleteBeforeReturning) {
  // Completion-race stress: each fan-out's bookkeeping lives on the
  // caller's frame, which is dead (and scribbled over) as soon as
  // parallel_for returns. A caller that returned while the last chunk
  // still touched that frame would corrupt memory, hang or crash;
  // every index must run exactly once, every time. n = 8 is the
  // smallest fan-out a 4-worker pool does not run inline.
  ThreadPool pool(4);
  constexpr std::size_t kFanOuts = 100000;
  constexpr std::size_t kN = 8;
  for (std::size_t round = 0; round < kFanOuts; ++round) {
    std::array<int, kN> counts{};
    pool.parallel_for(kN, [&](std::size_t i) { counts[i] += 1; });
    scribble_stack();
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(counts[i], 1) << "index " << i << " in fan-out " << round;
    }
  }
}

TEST(ThreadPool, GlobalPoolWorks) {
  std::atomic<std::size_t> sum{0};
  parallel_for(256, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 255u * 256u / 2);
}

TEST(ThreadPool, SingleIterationRunsInlineOnAnyPool) {
  ThreadPool pool(8);
  int runs = 0;
  std::size_t seen = 99;
  pool.parallel_for(1, [&](std::size_t i) {
    ++runs;
    seen = i;
  });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(seen, 0u);
}

TEST(ThreadPool, FewerIterationsThanWorkers) {
  ThreadPool pool(16);
  // n < workers (and below the 2*workers inline threshold): every index
  // must still run exactly once.
  std::vector<int> counts(5, 0);
  pool.parallel_for(counts.size(), [&](std::size_t i) { ++counts[i]; });
  for (int c : counts) {
    EXPECT_EQ(c, 1);
  }
}

TEST(ThreadPool, DisjointSliceWritesNeedNoAtomics) {
  // The simulator's usage pattern: each iteration owns a disjoint slice of
  // a shared buffer, so plain (non-atomic) writes must be race-free. Under
  // TSAN this test is the canary for chunking bugs that alias slices.
  ThreadPool pool(4);
  constexpr std::size_t kSlices = 64;
  constexpr std::size_t kSliceLen = 128;
  std::vector<std::uint32_t> data(kSlices * kSliceLen, 0);
  pool.parallel_for(kSlices, [&](std::size_t s) {
    for (std::size_t j = 0; j < kSliceLen; ++j) {
      data[s * kSliceLen + j] = static_cast<std::uint32_t>(s + 1);
    }
  });
  for (std::size_t s = 0; s < kSlices; ++s) {
    for (std::size_t j = 0; j < kSliceLen; ++j) {
      ASSERT_EQ(data[s * kSliceLen + j], s + 1);
    }
  }
}

TEST(ThreadPool, GlobalFirstUseIsThreadSafe) {
  // Hammer global() from many threads at once; the magic static must
  // construct exactly one pool and every caller must see the same object.
  constexpr int kCallers = 16;
  std::vector<ThreadPool*> seen(kCallers, nullptr);
  {
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int i = 0; i < kCallers; ++i) {
      callers.emplace_back([&, i] { seen[i] = &ThreadPool::global(); });
    }
    for (auto& t : callers) {
      t.join();
    }
  }
  for (int i = 1; i < kCallers; ++i) {
    EXPECT_EQ(seen[i], seen[0]);
  }
  EXPECT_GE(seen[0]->size(), 1u);
}

TEST(ThreadPool, ParsesThreadCountValues) {
  EXPECT_EQ(ThreadPool::parse_thread_count(nullptr), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count(""), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("0"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("8"), 8u);
  EXPECT_EQ(ThreadPool::parse_thread_count("1"), 1u);
  EXPECT_EQ(ThreadPool::parse_thread_count("not-a-number"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("4x"), 0u);
  // Negative and absurd counts must not wrap into huge pools.
  EXPECT_EQ(ThreadPool::parse_thread_count("-1"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("18446744073709551615"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count(" 4"), 0u);
}

TEST(ThreadPool, SetGlobalThreadsAfterCreationThrows) {
  (void)ThreadPool::global();  // ensure the pool exists
  EXPECT_THROW(ThreadPool::set_global_threads(2), PreconditionError);
}

TEST(ThreadPool, PropagatesExceptionFromWorker) {
  ThreadPool pool(4);
  // 1000 iterations across 4 workers is far beyond the inline threshold,
  // so the throw happens on a worker thread, not the caller.
  EXPECT_THROW(pool.parallel_for(1000,
                                 [](std::size_t i) {
                                   if (i == 617) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, PropagatesExceptionInline) {
  ThreadPool pool(1);  // single worker -> the inline path
  EXPECT_THROW(pool.parallel_for(
                   10, [](std::size_t) { throw std::logic_error("inline"); }),
               std::logic_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   1000, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  // The pool must survive a throwing loop: workers keep running and the
  // next loop completes every iteration.
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(counts.size(),
                    [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(ThreadPool, ExceptionMessageSurvivesPropagation) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(1000, [](std::size_t i) {
      if (i == 0) {
        throw std::runtime_error("first chunk failed");
      }
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first chunk failed");
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  // A nested fan-out from inside a worker must run inline (fanning out
  // again could deadlock the pool) and still execute every inner
  // iteration exactly once.
  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = 32;
  std::vector<std::atomic<int>> counts(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t o) {
    pool.parallel_for(kInner, [&](std::size_t i) {
      counts[o * kInner + i].fetch_add(1);
    });
  });
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(ThreadPool, NestedAcrossDistinctPoolsRunsInline) {
  ThreadPool outer(4);
  ThreadPool inner(4);
  // The reentrancy guard is per-thread, not per-pool: a worker of any
  // pool never fans out again, even into a different pool.
  std::vector<std::atomic<int>> counts(64 * 32);
  outer.parallel_for(64, [&](std::size_t o) {
    inner.parallel_for(32, [&](std::size_t i) {
      counts[o * 32 + i].fetch_add(1);
    });
  });
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(ThreadPool, NestedExceptionPropagatesToOuterCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t o) {
                                   pool.parallel_for(32, [&](std::size_t i) {
                                     if (o == 63 && i == 31) {
                                       throw std::runtime_error("nested");
                                     }
                                   });
                                 }),
               std::runtime_error);
}

}  // namespace
}  // namespace wavepim
