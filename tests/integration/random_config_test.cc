// Robustness sweep: random-but-valid configurations.
//
// Draws configurations across the whole parameter space — policies,
// criteria, abort modes, costs, bounds, extensions — and asserts the
// model-independent invariants on every one: conservation laws, CPU
// bounds, metric ranges, and determinism. This is the net that
// catches interactions no targeted test thought to combine.

#include <gtest/gtest.h>

#include "exp/experiment.h"
#include "sim/random.h"

namespace strip {
namespace {

core::Config RandomConfig(sim::RandomStream& random) {
  core::Config config;
  config.sim_seconds = 8.0;

  config.policy = static_cast<core::PolicyKind>(random.UniformInt(0, 4));
  config.staleness =
      static_cast<db::StalenessCriterion>(random.UniformInt(0, 3));
  config.abort_on_stale = random.WithProbability(0.3);
  config.queue_discipline = random.WithProbability(0.5)
                                ? core::QueueDiscipline::kFifo
                                : core::QueueDiscipline::kLifo;
  config.txn_sched =
      static_cast<txn::TxnSchedPolicy>(random.UniformInt(0, 2));
  config.feasible_deadline = random.WithProbability(0.8);
  config.txn_preemption = random.WithProbability(0.2);

  config.lambda_u = random.Uniform(50, 600);
  config.p_ul = random.Uniform(0.05, 0.95);
  config.a_update = random.Uniform(0.01, 0.5);
  config.n_low = random.UniformInt(5, 800);
  config.n_high = random.UniformInt(5, 800);

  config.lambda_t = random.Uniform(0.5, 30);
  config.p_tl = random.Uniform(0.05, 0.95);
  config.s_min = random.Uniform(0.01, 0.3);
  config.s_max = config.s_min + random.Uniform(0.1, 2.0);
  config.reads_mean = random.Uniform(0, 5);
  config.reads_sd = random.Uniform(0, 2);
  config.alpha = random.Uniform(0.5, 12);
  config.comp_mean = random.Uniform(0.005, 0.3);
  config.comp_sd = config.comp_mean * random.Uniform(0, 0.2);
  config.p_view = random.Uniform(0, 1);

  config.x_lookup = random.Uniform(0, 20000);
  config.x_update = random.Uniform(0, 50000);
  config.x_switch = random.Uniform(0, 5000);
  config.x_queue = random.Uniform(0, 2000);
  config.x_scan = random.Uniform(0, 3000);
  config.os_max = random.UniformInt(4, 4000);
  config.uq_max = random.UniformInt(4, 5600);

  config.indexed_update_queue = random.WithProbability(0.3);
  config.split_importance_queues = random.WithProbability(0.3);
  config.update_cpu_fraction = random.Uniform(0, 1);
  config.periodic_updates = random.WithProbability(0.2);
  config.trigger_probability = random.Uniform(0, 0.5);
  config.x_trigger = random.Uniform(0, 30000);
  config.buffer_hit_ratio = random.Uniform(0.8, 1.0);
  config.io_seconds = random.Uniform(0, 0.002);
  config.history_depth = random.UniformInt(0, 4);
  config.n_attributes = random.UniformInt(1, 4);
  if (random.WithProbability(0.3) && !config.periodic_updates) {
    config.bursty_updates = true;
    config.lambda_u_peak = config.lambda_u * random.Uniform(1.0, 3.0);
    config.normal_dwell_seconds = random.Uniform(1, 10);
    config.burst_dwell_seconds = random.Uniform(0.5, 5);
  }
  if (random.WithProbability(0.3)) {
    config.admission_limit = random.UniformInt(1, 20);
  }
  if (random.WithProbability(0.3)) {
    config.warmup_seconds = random.Uniform(0, 2.0);
  }
  return config;
}

class RandomConfigTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomConfigTest, InvariantsHold) {
  sim::RandomStream random(base::RngSeed(1000 + GetParam()));
  const core::Config config = RandomConfig(random);
  ASSERT_FALSE(config.Validate().has_value())
      << *config.Validate() << " (draw " << GetParam() << ")";

  core::ShardedConfig one_shard;
  one_shard.base = config;
  const core::RunMetrics m = exp::RunOnce(one_shard, 77 + GetParam());

  // Conservation.
  EXPECT_EQ(m.txns_arrived, m.txns_terminal() + m.txns_inflight_at_end);
  EXPECT_EQ(m.txns_committed,
            m.txns_committed_fresh + m.txns_committed_stale);
  // CPU bounds.
  EXPECT_GE(m.rho_t(), 0.0);
  EXPECT_GE(m.rho_u(), 0.0);
  EXPECT_LE(m.rho_total(), 1.0 + 1e-9);
  // Metric ranges.
  EXPECT_GE(m.p_success(), 0.0);
  EXPECT_LE(m.p_success(), 1.0 + 1e-12);
  EXPECT_GE(m.f_old_low, 0.0);
  EXPECT_LE(m.f_old_low, 1.0 + 1e-12);
  EXPECT_GE(m.f_old_high, 0.0);
  EXPECT_LE(m.f_old_high, 1.0 + 1e-12);
  // Abort mode under a timestamp-detectable criterion never commits a
  // stale reader.
  if (config.abort_on_stale &&
      db::DetectableByTimestamp(config.staleness)) {
    EXPECT_EQ(m.txns_committed_stale, 0u);
  }
  // Determinism.
  const core::RunMetrics again = exp::RunOnce(one_shard, 77 + GetParam());
  EXPECT_EQ(m.txns_committed, again.txns_committed);
  EXPECT_DOUBLE_EQ(m.value_committed, again.value_committed);
  EXPECT_DOUBLE_EQ(m.cpu_update_seconds, again.cpu_update_seconds);
}

INSTANTIATE_TEST_SUITE_P(FortyDraws, RandomConfigTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace strip
