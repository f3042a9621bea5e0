// ParallelRunner: the worker-pool behind RunSweep. The contract under
// test: every index in [0, count) executes exactly once whatever the
// job count, jobs=1 stays on the calling thread (no pool overhead for
// serial runs), and Serialized() gives mutual exclusion strong enough
// to guard non-atomic shared state.

#include "exp/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace strip::exp {
namespace {

ParallelOptions Jobs(int n) {
  ParallelOptions options;
  options.jobs = n;
  return options;
}

TEST(ParallelRunnerTest, HardwareJobsIsPositive) {
  EXPECT_GE(ParallelRunner::HardwareJobs(), 1);
}

TEST(ParallelRunnerTest, DefaultOptionsUseHardwareJobs) {
  ParallelRunner runner{ParallelOptions{}};
  EXPECT_EQ(runner.jobs(), ParallelRunner::HardwareJobs());
}

TEST(ParallelRunnerTest, ZeroJobsFallBackToHardware) {
  EXPECT_EQ(ParallelRunner(Jobs(0)).jobs(), ParallelRunner::HardwareJobs());
  EXPECT_EQ(ParallelRunner(Jobs(5)).jobs(), 5);
}

TEST(ParallelRunnerDeathTest, NegativeJobsDie) {
  EXPECT_DEATH(ParallelRunner(Jobs(-3)), "jobs must be >= 0");
}

TEST(ParallelRunnerTest, EveryIndexRunsExactlyOnce) {
  for (int jobs : {1, 2, 4, 8}) {
    ParallelRunner runner(Jobs(jobs));
    constexpr std::size_t kCount = 100;
    std::vector<std::atomic<int>> hits(kCount);
    runner.Run(kCount, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(ParallelRunnerTest, ZeroTasksIsANoop) {
  ParallelRunner runner(Jobs(4));
  runner.Run(0, [](std::size_t) { FAIL() << "task ran for empty count"; });
}

TEST(ParallelRunnerTest, MoreJobsThanTasksStillRunsEachOnce) {
  ParallelRunner runner(Jobs(16));
  std::vector<std::atomic<int>> hits(3);
  runner.Run(3, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelRunnerTest, SingleJobRunsOnCallingThread) {
  // The serial fast path must not spawn: RunSweep with jobs=1 keeps
  // the historical single-threaded execution exactly.
  ParallelRunner runner(Jobs(1));
  const std::thread::id caller = std::this_thread::get_id();
  runner.Run(4, [caller](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelRunnerTest, PinningForcesAWorkerThread) {
  // With --pin-cores even jobs=1 must run tasks on a spawned thread,
  // so the caller's affinity mask is never narrowed as a side effect.
  ParallelOptions options = Jobs(1);
  options.pin_cores = true;
  ParallelRunner runner(options);
  const std::thread::id caller = std::this_thread::get_id();
  runner.Run(2, [caller](std::size_t) {
    EXPECT_NE(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelRunnerTest, SerializedExcludesConcurrentSections) {
  // A non-atomic counter bumped only inside Serialized(): any two
  // overlapping sections would lose increments.
  ParallelRunner runner(Jobs(8));
  constexpr std::size_t kCount = 2000;
  std::size_t counter = 0;
  runner.Run(kCount,
             [&](std::size_t) { runner.Serialized([&] { ++counter; }); });
  EXPECT_EQ(counter, kCount);
}

TEST(ParallelRunnerTest, TasksObserveIncreasingDispatchOrder) {
  // Dispatch hands out indices from an atomic counter, so a jobs=1
  // runner sees strictly ascending indices — the property the
  // deterministic merge in RunSweep leans on for its serial path.
  ParallelRunner runner(Jobs(1));
  std::vector<std::size_t> order;
  runner.Run(5, [&order](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelRunnerTest, PinCurrentThreadToCoreReturnsOnLinux) {
  // Exercised on a spawned thread so the test runner's own affinity
  // is untouched.
  std::thread probe([] {
#if defined(__linux__)
    EXPECT_TRUE(ParallelRunner::PinCurrentThreadToCore(0));
#else
    EXPECT_FALSE(ParallelRunner::PinCurrentThreadToCore(0));
#endif
  });
  probe.join();
}

}  // namespace
}  // namespace strip::exp
