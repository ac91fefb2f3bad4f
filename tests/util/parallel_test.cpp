// WorkerPool: the bounded-spin-then-park barrier must survive rapid
// back-to-back rounds (spin path), long idle gaps (park path), exceptions,
// and arbitrary pool sizes, with block() covering every index exactly once.
// parallel_for: its shared fan-out pool must run nested calls, calls from
// several threads at once, and calls after an exception to completion,
// and follow MRWSN_THREADS (clamped to kMaxThreads) from call to call.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mrwsn::util {
namespace {

TEST(WorkerPool, RunsEveryWorkerEachRound) {
  WorkerPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  for (int round = 0; round < 200; ++round) {
    std::atomic<unsigned> mask{0};
    pool.run([&](std::size_t worker) {
      mask.fetch_add(1u << worker, std::memory_order_relaxed);
    });
    EXPECT_EQ(mask.load(), 0b1111u) << "round " << round;
  }
}

TEST(WorkerPool, WakesWorkersAfterAnIdleGap) {
  // Long enough for every waiter to exhaust its spin budget and park on
  // the condition variable; the next run() must still reach all workers.
  WorkerPool pool(3);
  for (int gap = 0; gap < 3; ++gap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::atomic<std::size_t> ran{0};
    pool.run([&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 3u);
  }
}

TEST(WorkerPool, BlockPartitionCoversEveryIndexOnce) {
  for (std::size_t workers : {1u, 2u, 3u, 5u, 8u}) {
    WorkerPool pool(workers);
    for (std::size_t count : {0u, 1u, 7u, 64u, 1000u}) {
      std::vector<int> hits(count, 0);
      std::size_t prev_end = 0;
      for (std::size_t w = 0; w < pool.size(); ++w) {
        const auto [begin, end] = pool.block(w, count);
        EXPECT_EQ(begin, prev_end);
        prev_end = end;
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      }
      EXPECT_EQ(prev_end, count);
      for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i], 1);
    }
  }
}

TEST(WorkerPool, DeterministicBlockSumsAcrossRounds) {
  // The static partition plus per-slot writes must give bit-identical
  // results round after round — the property the sharded MAC leans on.
  constexpr std::size_t kItems = 997;
  WorkerPool pool(4);
  std::vector<std::uint64_t> out(kItems, 0);
  auto fill = [&](std::size_t worker) {
    const auto [begin, end] = pool.block(worker, kItems);
    for (std::size_t i = begin; i < end; ++i) out[i] = i * i + worker;
  };
  pool.run(fill);
  const std::vector<std::uint64_t> first = out;
  for (int round = 0; round < 50; ++round) {
    std::fill(out.begin(), out.end(), 0);
    pool.run(fill);
    ASSERT_EQ(out, first) << "round " << round;
  }
}

TEST(WorkerPool, PropagatesWorkerExceptionsAndSurvives) {
  WorkerPool pool(4);
  EXPECT_THROW(pool.run([](std::size_t worker) {
                 if (worker == 2) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The pool must still be usable after a throwing round.
  std::atomic<std::size_t> ran{0};
  pool.run([&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4u);
}

TEST(WorkerPool, SingleWorkerRunsInline) {
  WorkerPool pool(1);
  std::size_t ran = 0;
  const auto caller = std::this_thread::get_id();
  pool.run([&](std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  });
  EXPECT_EQ(ran, 1u);
}

TEST(ParallelFor, MatchesSerialSum) {
  constexpr std::size_t kItems = 513;
  std::vector<std::uint64_t> out(kItems, 0);
  parallel_for(kItems, [&](std::size_t i) { out[i] = 3 * i + 1; });
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < kItems; ++i) expect += 3 * i + 1;
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), std::uint64_t{0}), expect);
}

/// Sets MRWSN_THREADS for one scope.
class ThreadEnvGuard {
 public:
  explicit ThreadEnvGuard(const char* value) {
    ::setenv("MRWSN_THREADS", value, 1);
  }
  ~ThreadEnvGuard() { ::unsetenv("MRWSN_THREADS"); }
};

TEST(ParallelFor, NestedCallsRunEveryInnerIndex) {
  ThreadEnvGuard env("4");
  constexpr std::size_t kOuter = 12, kInner = 97;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_for(kOuter, [&](std::size_t i) {
    parallel_for(kInner, [&](std::size_t j) { ++hits[i * kInner + j]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ConcurrentCallersEachCompleteTheirOwnWork) {
  ThreadEnvGuard env("4");
  constexpr std::size_t kCallers = 4, kRounds = 25, kItems = 300;
  std::vector<std::uint64_t> totals(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::vector<std::uint64_t> out(kItems, 0);
        parallel_for(kItems, [&](std::size_t i) { out[i] = c + i; });
        totals[c] += std::accumulate(out.begin(), out.end(), std::uint64_t{0});
      }
    });
  }
  for (std::thread& th : callers) th.join();
  for (std::size_t c = 0; c < kCallers; ++c)
    EXPECT_EQ(totals[c], kRounds * (kItems * c + kItems * (kItems - 1) / 2));
}

TEST(ParallelFor, RethrowsTheExceptionAndThePoolKeepsWorking) {
  ThreadEnvGuard env("4");
  EXPECT_THROW(parallel_for(200,
                            [](std::size_t i) {
                              if (i == 17) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // A nested call that throws surfaces through both levels.
  EXPECT_THROW(parallel_for(8,
                            [](std::size_t) {
                              parallel_for(8, [](std::size_t j) {
                                if (j == 5) throw std::logic_error("inner");
                              });
                            }),
               std::logic_error);
  std::vector<int> out(500, 0);
  parallel_for(out.size(), [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 500);
}

TEST(ParallelFor, FanOutFollowsThreadCountChangesBetweenCalls) {
  const auto threads_used = [](std::size_t items) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    std::vector<int> out(items, 0);
    parallel_for(items, [&](std::size_t i) {
      out[i] = 1;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      const std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0),
              static_cast<int>(items));
    return ids;
  };
  {
    ThreadEnvGuard env("1");
    const auto ids = threads_used(64);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
  }
  {
    ThreadEnvGuard env("8");
    EXPECT_LE(threads_used(64).size(), 8u);
    EXPECT_LE(threads_used(3).size(), 3u);  // never more threads than items
  }
  {
    ThreadEnvGuard env("2");
    EXPECT_LE(threads_used(64).size(), 2u);
  }
}

TEST(ConfiguredThreads, ClampsToTheCeiling) {
  {
    ThreadEnvGuard env("3");
    EXPECT_EQ(configured_threads(), 3u);
  }
  for (const char* huge : {"100000", "99999999999999999999999"}) {
    ThreadEnvGuard env(huge);
    EXPECT_EQ(configured_threads(), kMaxThreads) << huge;
  }
  for (const char* bad : {"0", "-4", "abc", "4x", ""}) {
    ThreadEnvGuard env(bad);
    const std::size_t threads = configured_threads();
    EXPECT_GE(threads, 1u) << bad;
    EXPECT_LE(threads, kMaxThreads) << bad;
  }
}

}  // namespace
}  // namespace mrwsn::util
