#include "exp/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <thread>
#include <vector>

#include "base/check.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace strip::exp {

ParallelRunner::ParallelRunner(const ParallelOptions& options)
    : options_(options),
      jobs_(options.jobs > 0 ? options.jobs : HardwareJobs()) {
  STRIP_CHECK_MSG(options.jobs >= 0,
                  "jobs must be >= 0 (0 means one per hardware core)");
}

int ParallelRunner::HardwareJobs() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 0 ? static_cast<int>(cores) : 4;
}

bool ParallelRunner::PinCurrentThreadToCore(int core) {
#if defined(__linux__)
  const int cores = HardwareJobs();
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(core % cores), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

void ParallelRunner::Run(std::size_t count, const Task& task) {
  STRIP_CHECK_MSG(task != nullptr, "parallel runner needs a task");
  if (count == 0) return;
  const int n_workers =
      std::min<int>(jobs_, static_cast<int>(std::min<std::size_t>(
                               count, static_cast<std::size_t>(
                                          std::numeric_limits<int>::max()))));

  std::atomic<std::size_t> next{0};
  const bool pin = options_.pin_cores;
  auto worker = [&task, &next, count, pin](int worker_index) {
    if (pin && !PinCurrentThreadToCore(worker_index)) {
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true)) {
        std::fprintf(stderr,
                     "parallel runner: core pinning unavailable, "
                     "workers run unpinned\n");
      }
    }
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      task(i);
    }
  };

  if (n_workers == 1 && !pin) {
    // Sequential baseline: same code path, caller's thread, index
    // order — no pool to set up or tear down. (With pinning on even a
    // single worker gets its own thread, so the caller's affinity is
    // never disturbed.)
    worker(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(n_workers));
  for (int w = 0; w < n_workers; ++w) pool.emplace_back(worker, w);
  for (std::thread& t : pool) t.join();
}

void ParallelRunner::Serialized(const std::function<void()>& fn) {
  const std::lock_guard<std::mutex> lock(serial_mutex_);
  fn();
}

}  // namespace strip::exp
