// A worker-pool runner for embarrassingly-parallel experiment grids.
//
// The sweep machinery (exp/experiment.h) runs one single-threaded
// Simulation per grid cell; cells are independent, so a sweep is a
// textbook worker-pool problem. ParallelRunner owns that shape: a
// fixed pool of worker threads (one per hardware core by default,
// optionally pinned worker-to-core — the mx::system::cpu idiom) pulls
// task indexes off a shared atomic counter until the grid is drained.
//
// Determinism contract: the runner never reorders *results*. Tasks
// receive their grid index and write into pre-sized, index-addressed
// storage, so the merged result — and any file a task writes under
// Serialized() — is byte-identical regardless of the job count or the
// order in which workers happen to finish. Anything that must not
// interleave across workers (cell-file writes, the progress line)
// goes through Serialized(), a single mutex shared by all workers of
// one runner.
//
// Example:
//   ParallelRunner runner({.jobs = 8, .pin_cores = true});
//   std::vector<Result> results(grid.size());       // index-addressed
//   runner.Run(grid.size(), [&](std::size_t i) {
//     results[i] = RunCell(grid[i]);
//     runner.Serialized([&] { PersistCell(i, results[i]); });
//   });

#ifndef STRIP_EXP_PARALLEL_RUNNER_H_
#define STRIP_EXP_PARALLEL_RUNNER_H_

#include <cstddef>
#include <functional>
#include <mutex>

namespace strip::exp {

// How a runner spreads work across the machine.
struct ParallelOptions {
  // Worker threads; 0 means one per hardware core. Negative is
  // invalid.
  int jobs = 0;
  // Pin worker i to core i (mod core count). Linux-only; silently a
  // no-op on other platforms and a one-line warning when the kernel
  // rejects the affinity call.
  bool pin_cores = false;
};

class ParallelRunner {
 public:
  // A unit of work; receives its grid index. Tasks run concurrently on
  // worker threads and must not share mutable state except through
  // Serialized() or their own index-addressed slots.
  using Task = std::function<void(std::size_t index)>;

  explicit ParallelRunner(const ParallelOptions& options);

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  // Executes task(0) .. task(count - 1) across the pool and blocks
  // until every task has returned. The pool size is
  // min(jobs(), count); count == 0 returns immediately. With
  // jobs() == 1 the tasks run in index order on one worker — the
  // sequential baseline parallel runs must byte-match.
  void Run(std::size_t count, const Task& task);

  // Runs fn under the runner's serialization mutex. Use for any side
  // effect that must not interleave across workers: durable cell
  // writes, progress reporting. Callable from inside tasks only.
  void Serialized(const std::function<void()>& fn);

  // The resolved worker count (options.jobs, or the hardware core
  // count when that was 0).
  int jobs() const { return jobs_; }
  bool pin_cores() const { return options_.pin_cores; }

  // One worker per hardware core; falls back to 4 when the hardware
  // concurrency is unknown.
  static int HardwareJobs();

  // Pins the calling thread to `core` (mod the core count). Returns
  // false when pinning is unsupported or rejected; the caller keeps
  // running unpinned.
  static bool PinCurrentThreadToCore(int core);

 private:
  ParallelOptions options_;
  int jobs_;
  std::mutex serial_mutex_;
};

}  // namespace strip::exp

#endif  // STRIP_EXP_PARALLEL_RUNNER_H_
