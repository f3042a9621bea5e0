#include "exp/experiment.h"

#include <chrono>

#include "base/check.h"
#include "core/cluster.h"
#include "core/system.h"
#include "sim/simulator.h"

namespace strip::exp {

namespace {

using Clock = std::chrono::steady_clock;

// Budgeted run against an absolute deadline, so a sweep cell can
// share one deadline across its replications. Slicing replays the
// exact event sequence of an unsliced run (Simulator::RunUntil
// dispatches each event once across successive calls), so results are
// identical to RunOnce unless the deadline actually fires.
core::RunMetrics ClusterRunOnceUntil(const core::ShardedConfig& config,
                                     std::uint64_t seed,
                                     const ClusterRunHook& hook,
                                     const RunContext& context,
                                     Clock::time_point deadline,
                                     double slice_sim_seconds,
                                     bool* timed_out) {
  if (slice_sim_seconds <= 0) slice_sim_seconds = 5.0;
  sim::Simulator simulator;
  core::Cluster cluster(&simulator, config, base::RngSeed(seed));
  RunFinisher finish;
  if (hook) finish = hook(cluster, context);
  core::RunMetrics metrics;
  while (true) {
    if (cluster.RunSlice(slice_sim_seconds)) {
      metrics = cluster.metrics();
      break;
    }
    if (Clock::now() >= deadline) {
      metrics = cluster.HaltEarly();
      if (timed_out != nullptr) *timed_out = true;
      break;
    }
  }
  if (finish) finish(metrics);
  return metrics;
}

}  // namespace

core::RunMetrics RunOnce(const core::ShardedConfig& config,
                         std::uint64_t seed) {
  return RunOnce(config, seed, nullptr, RunContext{});
}

core::RunMetrics RunOnce(const core::ShardedConfig& config,
                         std::uint64_t seed, const ClusterRunHook& hook,
                         const RunContext& context) {
  sim::Simulator simulator;
  core::Cluster cluster(&simulator, config, base::RngSeed(seed));
  // The finisher is declared after the Cluster so its destruction (and
  // with it any observers it owns) happens first, while the shard
  // engines' buses the observers detach from are still alive.
  RunFinisher finish;
  if (hook) finish = hook(cluster, context);
  const core::RunMetrics metrics = cluster.Run();
  if (finish) finish(metrics);
  return metrics;
}

core::RunMetrics RunOnce(const core::ShardedConfig& config,
                         std::uint64_t seed, const ClusterRunHook& hook,
                         const RunContext& context, const RunBudget& budget,
                         bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  if (budget.wall_seconds <= 0) {
    return RunOnce(config, seed, hook, context);
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget.wall_seconds));
  return ClusterRunOnceUntil(config, seed, hook, context, deadline,
                             budget.slice_sim_seconds, timed_out);
}

std::vector<core::RunMetrics> Replicate(const core::ShardedConfig& config,
                                        int replications,
                                        std::uint64_t base_seed) {
  return Replicate(config, replications, base_seed, nullptr);
}

std::vector<core::RunMetrics> Replicate(const core::ShardedConfig& config,
                                        int replications,
                                        std::uint64_t base_seed,
                                        const ClusterRunHook& hook) {
  STRIP_CHECK_MSG(replications > 0, "need at least one replication");
  std::vector<core::RunMetrics> runs;
  runs.reserve(replications);
  for (int r = 0; r < replications; ++r) {
    RunContext context;
    context.replication = r;
    context.seed = base_seed + static_cast<std::uint64_t>(r);
    runs.push_back(RunOnce(config, context.seed, hook, context));
  }
  return runs;
}

SweepResult::SweepResult(std::size_t n_policies, std::size_t n_x,
                         int replications)
    : n_policies_(n_policies), n_x_(n_x), cells_(n_policies * n_x) {
  for (auto& cell : cells_) {
    cell.resize(static_cast<std::size_t>(replications));
  }
}

const std::vector<core::RunMetrics>& SweepResult::cell(
    std::size_t policy_index, std::size_t x_index) const {
  STRIP_CHECK(policy_index < n_policies_ && x_index < n_x_);
  return cells_[policy_index * n_x_ + x_index];
}

std::vector<core::RunMetrics>& SweepResult::mutable_cell(
    std::size_t policy_index, std::size_t x_index) {
  STRIP_CHECK(policy_index < n_policies_ && x_index < n_x_);
  return cells_[policy_index * n_x_ + x_index];
}

double SweepResult::Mean(std::size_t policy_index, std::size_t x_index,
                         const MetricFn& metric) const {
  return Aggregate(policy_index, x_index, metric).mean;
}

sim::Summary SweepResult::Aggregate(std::size_t policy_index,
                                    std::size_t x_index,
                                    const MetricFn& metric) const {
  std::vector<double> samples;
  for (const core::RunMetrics& run : cell(policy_index, x_index)) {
    samples.push_back(metric(run));
  }
  return sim::Summary::FromSamples(samples);
}

SweepResult RunSweep(const SweepSpec& spec) {
  STRIP_CHECK_MSG(!spec.policies.empty(), "sweep needs at least one policy");
  STRIP_CHECK_MSG(!spec.x_values.empty(), "sweep needs at least one x value");
  STRIP_CHECK_MSG(spec.apply_x != nullptr || spec.apply_x_cluster != nullptr,
                  "sweep needs an apply_x or apply_x_cluster");
  STRIP_CHECK_MSG(spec.replications > 0, "sweep needs replications");
  STRIP_CHECK_MSG(spec.on_run == nullptr ||
                      (spec.cluster.shards == 1 &&
                       spec.apply_x_cluster == nullptr &&
                       spec.on_cluster_run == nullptr),
                  "on_run observes one-shard sweeps only; use on_cluster_run");

  SweepResult result(spec.policies.size(), spec.x_values.size(),
                     spec.replications);

  // Tasks are whole cells (policy, x): a cell's replications run
  // sequentially on one worker so the cell shares one wall-clock
  // budget and finishes as a unit — on_cell_done sees all of its runs
  // together, which is what lets a runner persist cell files
  // atomically for --resume. Every worker runs fully isolated
  // Simulation/RNG state (a fresh Simulator + Cluster per run, seeded
  // from the spec), and results land in index-addressed SweepResult
  // cells, so the merged result is byte-identical for any job count.
  struct Task {
    std::size_t policy_index;
    std::size_t x_index;
  };
  std::vector<Task> tasks;
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
      if (spec.skip_cell && spec.skip_cell(p, x)) continue;
      tasks.push_back({p, x});
    }
  }

  // on_run is the one-shard shorthand: it observes the cluster's only
  // engine.
  ClusterRunHook hook = spec.on_cluster_run;
  if (spec.on_run) {
    hook = [&spec](core::Cluster& cluster, const RunContext& context) {
      return spec.on_run(cluster.shard(0), context);
    };
  }

  ParallelRunner runner(spec.parallel);
  std::size_t cells_done = 0;
  runner.Run(tasks.size(), [&](std::size_t i) {
    const Task& task = tasks[i];
    const double x = spec.x_values[task.x_index];
    core::ShardedConfig config = spec.cluster;
    config.base = spec.base;
    config.base.policy = spec.policies[task.policy_index];
    if (spec.apply_x) spec.apply_x(config.base, x);
    if (spec.apply_x_cluster) spec.apply_x_cluster(config, x);
    std::vector<core::RunMetrics>& runs =
        result.mutable_cell(task.policy_index, task.x_index);
    // The cell's wall-clock budget is per-worker: it starts when a
    // worker picks the cell up, not when the sweep was launched, so
    // queueing behind other cells never eats a cell's allowance.
    const bool budgeted = spec.budget.wall_seconds > 0;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(
                budgeted ? spec.budget.wall_seconds : 0.0));
    bool cell_timed_out = false;
    for (int r = 0; r < spec.replications; ++r) {
      // Once the cell's budget fires, later replications are not
      // started — their metrics stay default-constructed.
      if (cell_timed_out) break;
      RunContext context;
      context.policy_index = task.policy_index;
      context.x_index = task.x_index;
      context.replication = r;
      context.seed = spec.base_seed + static_cast<std::uint64_t>(r);
      runs[static_cast<std::size_t>(r)] =
          budgeted ? ClusterRunOnceUntil(config, context.seed, hook, context,
                                         deadline,
                                         spec.budget.slice_sim_seconds,
                                         &cell_timed_out)
                   : RunOnce(config, context.seed, hook, context);
    }
    if (spec.on_cell_done || spec.on_progress) {
      // Durable cell writes and progress share one serialized
      // section, so a progress line can never interleave with a cell
      // file hitting disk.
      runner.Serialized([&] {
        if (spec.on_cell_done) {
          spec.on_cell_done(task.policy_index, task.x_index, runs,
                            cell_timed_out);
        }
        ++cells_done;
        if (spec.on_progress) spec.on_progress(cells_done, tasks.size());
      });
    }
  });
  return result;
}

}  // namespace strip::exp
