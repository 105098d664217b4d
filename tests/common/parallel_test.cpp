#include "common/parallel.h"

#include <gtest/gtest.h>

#include "common/error.h"

#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <fstream>
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
    // The probe does see workers when a pool has them: the caller is one
    // of a pool's workers, so a two-worker pool starts one thread.
    ThreadPool pool(2);
    EXPECT_EQ(live_threads(), before + 1);
  }
}
#endif

TEST(ThreadPool, SmallNRunsInline) {
  // The inline rule is `n < 2`: one iteration runs on the caller, while
  // three on an eight-worker pool already fan out and each runs once.
  ThreadPool pool(8);
  std::thread::id runner;
  pool.parallel_for(1,
                    [&](std::size_t) { runner = std::this_thread::get_id(); });
  EXPECT_EQ(runner, std::this_thread::get_id());
  std::vector<std::atomic<int>> touched(3);
  pool.parallel_for(3, [&](std::size_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) {
    EXPECT_EQ(t.load(), 1);
  }
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
  // Completion-race stress: the loop body and its captures live on the
  // caller's frame, which is dead (and scribbled over) as soon as
  // parallel_for returns. A caller that returned while a worker still
  // ran or counted a grain would corrupt memory, hang or crash; every
  // index must run exactly once, every time. n = 2 is the smallest
  // fan-out that reaches the workers.
  constexpr std::size_t kFanOuts = 100000;
  constexpr std::size_t kN = 2;
  for (const std::size_t workers : {2, 4, 8}) {
    ThreadPool pool(workers);
    for (std::size_t round = 0; round < kFanOuts; ++round) {
      std::array<int, kN> counts{};
      pool.parallel_for(kN, [&](std::size_t i) { counts[i] += 1; });
      scribble_stack();
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(counts[i], 1) << "index " << i << " in fan-out " << round
                                << " on " << workers << " workers";
      }
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
  // n < workers fans out all the same: some workers find no index left,
  // and every index must still run exactly once.
  std::vector<std::atomic<int>> counts(5);
  pool.parallel_for(counts.size(),
                    [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
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
  // 1000 iterations fan out, so the throw happens in whichever share
  // claims index 617: a worker's or the caller's own.
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

TEST(ThreadPool, CallerShareNestsAndThrows) {
  // The caller runs a share of its own fan-out. A nested parallel_for
  // from that share must run inline (fanning out again on a pool whose
  // workers are all taken would wait forever), and an exception thrown
  // there must still reach the caller once the workers are done.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  constexpr std::size_t kN = 16;  // one index per grain
  std::atomic<bool> caller_ran{false};
  std::atomic<int> nested{0};
  EXPECT_THROW(
      pool.parallel_for(kN,
                        [&](std::size_t) {
                          if (std::this_thread::get_id() != caller) {
                            // Hold the worker so an index is left over
                            // for the caller's share.
                            while (!caller_ran.load()) {
                              std::this_thread::yield();
                            }
                            return;
                          }
                          caller_ran.store(true);
                          pool.parallel_for(8, [&](std::size_t) {
                            nested.fetch_add(1);
                          });
                          throw std::runtime_error("caller share");
                        }),
      std::runtime_error);
  EXPECT_TRUE(caller_ran.load());
  EXPECT_EQ(nested.load(), 8);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPool, ConcurrentOutsideCallersEachRunOnce) {
  // Two threads that are not pool workers fan out on one pool at once;
  // neither call may lose, repeat or mix up the other's indices.
  ThreadPool pool(4);
  constexpr int kRounds = 2000;
  constexpr std::size_t kN = 64;
  const auto caller = [&pool](std::vector<std::atomic<int>>& counts) {
    for (int round = 0; round < kRounds; ++round) {
      pool.parallel_for(kN, [&](std::size_t i) { counts[i].fetch_add(1); });
    }
  };
  std::vector<std::atomic<int>> a(kN);
  std::vector<std::atomic<int>> b(kN);
  std::thread first(caller, std::ref(a));
  std::thread second(caller, std::ref(b));
  first.join();
  second.join();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(a[i].load(), kRounds) << "first caller, index " << i;
    EXPECT_EQ(b[i].load(), kRounds) << "second caller, index " << i;
  }
}

}  // namespace
}  // namespace wavepim
