// Cluster shapes: sweep the cluster itself, not just the workload.
//
// Two grids built on SweepSpec::apply_x_cluster (the cluster-scoped x
// axis added with the interconnect model):
//
//   1. shards x policy       - how does splitting one engine's load
//      across M shards change availability and tail response, once
//      cross-shard reads have to cross a real (non-zero latency,
//      slightly lossy) fabric?
//   2. link_latency_us x policy at a fixed 4-shard shape - how much
//      interconnect delay can the schedulers absorb before remote
//      reads start blowing transaction deadlines?
//
// Both grids give every remote read a timeout/retry budget and the
// stale-local degraded fallback, so a lost message costs a retry
// rather than a stuck transaction. The same grids run from the shell:
//
//   strip_sweep --x=shards --values=1,2,4,8 --link_latency_us=200 ...
//   strip_sweep --shards=4 --x=link_latency_us --values=0,200,1000,5000 ...
//
//   $ ./cluster_shapes [--seconds=S] [--reps=N]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "core/sharded_config.h"
#include "exp/experiment.h"

namespace {

using strip::core::PolicyKind;
using strip::core::RunMetrics;

void PrintGrid(const char* title, const char* x_label,
               const strip::exp::SweepSpec& spec,
               const strip::exp::SweepResult& result,
               const strip::exp::MetricFn& metric) {
  std::printf("\n%s\n%16s", title, x_label);
  for (PolicyKind policy : spec.policies) {
    std::printf(" %10s", strip::core::PolicyKindName(policy));
  }
  std::printf("\n");
  for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
    std::printf("%16g", spec.x_values[x]);
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      std::printf(" %10.3f", result.Mean(p, x, metric));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 30.0;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      seconds = std::atof(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    }
  }

  // One shared workload and one shared (imperfect) interconnect: a
  // 200us one-way hop with 50us of jitter and a 0.5% loss rate, and a
  // remote-read budget of two 20ms timeouts before the home shard
  // degrades to its stale local replica.
  strip::exp::SweepSpec spec;
  spec.base.sim_seconds = seconds;
  spec.base.remote_timeout_s = 0.02;
  spec.base.remote_retry_max = 2;
  spec.base.remote_fallback = strip::core::RemoteFallback::kStale;
  spec.policies = {PolicyKind::kUpdateFirst, PolicyKind::kOnDemand};
  spec.replications = reps;
  spec.cluster.link_latency_us = 200.0;
  spec.cluster.link_jitter_us = 50.0;
  spec.cluster.link_loss_p = 0.005;

  // Grid 1: the shard count is the x axis. apply_x_cluster edits the
  // cluster shape per cell.
  spec.x_name = "shards";
  spec.x_values = {1, 2, 4, 8};
  spec.apply_x_cluster = [](strip::core::ShardedConfig& config, double x) {
    config.shards = static_cast<int>(x);
  };
  strip::exp::SweepResult by_shards = strip::exp::RunSweep(spec);
  PrintGrid("availability (txns committed / s) vs cluster size",
            "shards", spec, by_shards,
            strip::exp::Metric(&RunMetrics::av));
  PrintGrid("p95 response (s) vs cluster size", "shards", spec, by_shards,
            strip::exp::Metric(&RunMetrics::response_p95));

  // Grid 2: fix the shape at 4 shards and sweep the fabric's one-way
  // latency from free to painful (5ms each way on a 20ms timeout).
  spec.cluster.shards = 4;
  spec.x_name = "link_latency_us";
  spec.x_values = {0, 200, 1000, 5000};
  spec.apply_x_cluster = [](strip::core::ShardedConfig& config, double x) {
    config.link_latency_us = x;
  };
  strip::exp::SweepResult by_latency = strip::exp::RunSweep(spec);
  PrintGrid("availability vs link latency (4 shards)", "latency_us",
            spec, by_latency, strip::exp::Metric(&RunMetrics::av));
  PrintGrid("p95 response (s) vs link latency (4 shards)", "latency_us",
            spec, by_latency,
            strip::exp::Metric(&RunMetrics::response_p95));
  PrintGrid("remote retries vs link latency (4 shards)", "latency_us",
            spec, by_latency,
            strip::exp::Metric(&RunMetrics::remote_retries));
  return 0;
}
