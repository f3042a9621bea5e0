// System-level fault behavior: importance-aware shedding, the
// overload governor, recovery metrics, and whole-run determinism
// under an active fault schedule.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/observer.h"
#include "core/system.h"
#include "exp/experiment.h"
#include "sim/simulator.h"

namespace strip::core {
namespace {

Config ShortConfig() {
  Config config;
  config.sim_seconds = 30;
  config.warmup_seconds = 0;
  return config;
}

RunMetrics RunWith(const Config& config, std::uint64_t seed = 5) {
  sim::Simulator simulator;
  System system(&simulator, config, base::RngSeed(seed));
  return system.Run();
}

class DropCounter : public SystemObserver {
 public:
  void OnUpdateDropped(sim::Time, const db::Update& update,
                       DropReason reason) override {
    if (reason != DropReason::kOverloadShed) return;
    ++shed_[static_cast<int>(update.object.cls)];
  }
  std::uint64_t shed_[2] = {0, 0};
};

class GovernorWatcher : public SystemObserver {
 public:
  void OnPolicyDecision(sim::Time, PolicyKind, SchedulerChoice choice,
                        const char*) override {
    if (choice == SchedulerChoice::kGovernorEngage) ++engages_;
    if (choice == SchedulerChoice::kGovernorDisengage) ++disengages_;
  }
  int engages_ = 0;
  int disengages_ = 0;
};

class WindowWatcher : public SystemObserver {
 public:
  void OnFaultWindow(sim::Time, const FaultWindowInfo& window) override {
    boundaries_.push_back(std::string(window.kind) +
                          (window.begin ? "+" : "-"));
  }
  std::vector<std::string> boundaries_;
};

TEST(FaultSystemTest, SheddingReplacesOverflowAndPrefersLowImportance) {
  Config config = ShortConfig();
  config.uq_max = 32;  // tiny queue under the default 400/s stream
  config.shed_by_importance = true;
  sim::Simulator simulator;
  System system(&simulator, config, base::RngSeed(5));
  DropCounter drops;
  system.AddObserver(&drops);
  const RunMetrics metrics = system.Run();
  // Shedding takes over the overflow path entirely...
  EXPECT_EQ(metrics.updates_dropped_uq_overflow, 0u);
  EXPECT_GT(metrics.updates_shed_by_class[0] +
                metrics.updates_shed_by_class[1],
            0u);
  // ...prefers low-importance victims...
  EXPECT_GT(metrics.updates_shed_by_class[0],
            metrics.updates_shed_by_class[1]);
  // ...and reports every eviction through the observer hook.
  EXPECT_EQ(drops.shed_[0], metrics.updates_shed_by_class[0]);
  EXPECT_EQ(drops.shed_[1], metrics.updates_shed_by_class[1]);
}

TEST(FaultSystemTest, SheddingOffKeepsHistoricalOverflowBehavior) {
  Config config = ShortConfig();
  config.uq_max = 32;
  const RunMetrics metrics = RunWith(config);
  EXPECT_GT(metrics.updates_dropped_uq_overflow, 0u);
  EXPECT_EQ(metrics.updates_shed_by_class[0], 0u);
  EXPECT_EQ(metrics.updates_shed_by_class[1], 0u);
}

TEST(FaultSystemTest, FaultWindowBoundariesFireInOrder) {
  Config config = ShortConfig();
  config.faults = "outage@5+2:speedup=8;burst@10+3:factor=2";
  sim::Simulator simulator;
  System system(&simulator, config, base::RngSeed(5));
  WindowWatcher watcher;
  system.AddObserver(&watcher);
  const RunMetrics metrics = system.Run();
  EXPECT_EQ(metrics.fault_windows, 2u);
  ASSERT_EQ(watcher.boundaries_.size(), 4u);
  EXPECT_EQ(watcher.boundaries_[0], "outage+");
  EXPECT_EQ(watcher.boundaries_[1], "outage-");
  EXPECT_EQ(watcher.boundaries_[2], "burst+");
  EXPECT_EQ(watcher.boundaries_[3], "burst-");
}

TEST(FaultSystemTest, OutageRecoveryMetricsArePopulated) {
  Config config = ShortConfig();
  // UF installs eagerly, so the catch-up burst actually heals
  // freshness; the default OD policy may leave the backlog uninstalled
  // for the whole run. The outage starts at t=10, once staleness has
  // reached steady state — an earlier window would pin the recovery
  // target below the steady-state level and recovery would never fire.
  config.policy = PolicyKind::kUpdateFirst;
  config.faults = "outage@10+5:speedup=4";
  const RunMetrics metrics = RunWith(config);
  EXPECT_EQ(metrics.fault_windows, 1u);
  EXPECT_GT(metrics.updates_outage_deferred, 0u);
  // The catch-up burst clears the backlog well before the run ends.
  EXPECT_GE(metrics.outage_recovery_seconds, 0.0);
  EXPECT_LT(metrics.outage_recovery_seconds, 20.0);
  EXPECT_GT(metrics.max_stale_excursion, 0.0);
  // Without faults the recovery fields stay at their sentinels.
  Config clean = ShortConfig();
  const RunMetrics base = RunWith(clean);
  EXPECT_EQ(base.fault_windows, 0u);
  EXPECT_LT(base.outage_recovery_seconds, 0.0);
  EXPECT_EQ(base.ToString().find("faults:"), std::string::npos);
  EXPECT_NE(metrics.ToString().find("faults:"), std::string::npos);
}

TEST(FaultSystemTest, CpuFaultCostsThroughput) {
  Config faulted = ShortConfig();
  faulted.faults = "cpu@0+30:factor=0.2";
  const RunMetrics slow = RunWith(faulted);
  const RunMetrics fast = RunWith(ShortConfig());
  EXPECT_LT(slow.txns_committed, fast.txns_committed);
  EXPECT_GT(slow.txns_missed_in_fault, 0u);
}

TEST(FaultSystemTest, GovernorEngagesUnderOutageAndDisengagesAfter) {
  Config config = ShortConfig();
  config.uq_max = 64;
  config.overload_governor = true;
  config.governor_high_watermark = 0.75;
  config.governor_low_watermark = 0.25;
  config.faults = "outage@5+5:speedup=4";
  sim::Simulator simulator;
  System system(&simulator, config, base::RngSeed(5));
  GovernorWatcher watcher;
  system.AddObserver(&watcher);
  const RunMetrics metrics = system.Run();
  EXPECT_GE(watcher.engages_, 1);
  EXPECT_GE(watcher.disengages_, 1);
  EXPECT_EQ(metrics.governor_engagements,
            static_cast<std::uint64_t>(watcher.engages_));
  EXPECT_GT(metrics.governor_engaged_seconds, 0.0);
  EXPECT_LT(metrics.governor_engaged_seconds, config.sim_seconds);
}

TEST(FaultSystemTest, FaultedRunIsSeedDeterministic) {
  Config config = ShortConfig();
  config.uq_max = 64;
  config.shed_by_importance = true;
  config.overload_governor = true;
  config.faults =
      "outage@5+2:speedup=4;loss@10+3:p=0.2;dup@14+3:p=0.2;"
      "reorder@18+3:p=0.3;burst@22+3:factor=3;cpu@26+2:factor=0.5";
  core::ShardedConfig one_shard;
  one_shard.base = config;
  const RunMetrics a = exp::RunOnce(one_shard, 17);
  const RunMetrics b = exp::RunOnce(one_shard, 17);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.updates_lost_fault, b.updates_lost_fault);
  EXPECT_EQ(a.updates_duplicated_fault, b.updates_duplicated_fault);
  EXPECT_EQ(a.updates_reordered_fault, b.updates_reordered_fault);
  // A fault schedule actually exercised every injector path.
  EXPECT_GT(a.updates_lost_fault, 0u);
  EXPECT_GT(a.updates_duplicated_fault, 0u);
  EXPECT_GT(a.updates_reordered_fault, 0u);
  EXPECT_GT(a.updates_outage_deferred, 0u);
}

TEST(FaultSystemTest, InvalidSpecIsRejectedByValidate) {
  Config config = ShortConfig();
  config.faults = "loss@5+2";  // missing required p=
  const auto error = config.Validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("requires p="), std::string::npos);
}

}  // namespace
}  // namespace strip::core
