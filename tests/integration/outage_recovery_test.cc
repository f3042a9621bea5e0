// Outage-recovery integration: a 5-second feed outage under the
// paper's baseline load, replayed at 4x catch-up speed, for the two
// policies that bracket the design space — UF (install everything
// eagerly) and OD (install only on demand). Pins time-to-fresh and
// the shed counts per importance class for a fixed seed, so any
// change to the fault layer, the shedding policy, or the scheduler's
// fault response shows up as a diff here.
//
// UF burns CPU on the catch-up burst immediately, so the database
// returns to its pre-outage staleness quickly; OD leaves the backlog
// in the queue until transactions demand the objects, so its
// time-to-fresh is far longer. The pinned numbers are the observed
// behavior of the current implementation (deterministic for the
// seed), not derived constants.

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/metrics.h"
#include "core/sharded_config.h"
#include "exp/experiment.h"

namespace strip::core {
namespace {

ShardedConfig OutageConfig(PolicyKind policy) {
  ShardedConfig sharded;
  Config& config = sharded.base;
  config.policy = policy;
  config.sim_seconds = 60;
  config.warmup_seconds = 0;
  config.uq_max = 256;
  config.shed_by_importance = true;
  config.faults = "outage@10+5:speedup=4";
  return sharded;
}

TEST(OutageRecoveryTest, UpdateFirstRecoversFast) {
  const RunMetrics m =
      exp::RunOnce(OutageConfig(PolicyKind::kUpdateFirst), 9);
  EXPECT_EQ(m.fault_windows, 1u);
  EXPECT_GT(m.updates_outage_deferred, 0u);
  ASSERT_GE(m.outage_recovery_seconds, 0.0) << "UF never returned to "
                                               "pre-outage staleness";
  // Pinned observed behavior (seed 9): recovery within a second of the
  // window closing, and shedding only of low-importance updates.
  EXPECT_NEAR(m.outage_recovery_seconds, 0.0, 1.5);
  EXPECT_EQ(m.updates_shed_by_class[1], 0u);
}

TEST(OutageRecoveryTest, OnDemandRecoversSlowly) {
  const RunMetrics m =
      exp::RunOnce(OutageConfig(PolicyKind::kOnDemand), 9);
  EXPECT_EQ(m.fault_windows, 1u);
  EXPECT_GT(m.updates_outage_deferred, 0u);
  const RunMetrics uf =
      exp::RunOnce(OutageConfig(PolicyKind::kUpdateFirst), 9);
  // OD installs only on demand: the backlog lingers, so either it
  // never returns to the pre-outage staleness level inside the run or
  // it takes far longer than UF.
  if (m.outage_recovery_seconds >= 0) {
    EXPECT_GT(m.outage_recovery_seconds,
              uf.outage_recovery_seconds * 2);
  }
  // And its bounded queue sheds aggressively during the catch-up.
  EXPECT_GT(m.updates_shed_by_class[0] + m.updates_shed_by_class[1], 0u);
}

TEST(OutageRecoveryTest, PinnedSeedNine) {
  // The full pinned cell for seed 9, both policies. These are
  // regression pins of observed values — update them deliberately
  // when the model changes, never casually.
  const RunMetrics uf =
      exp::RunOnce(OutageConfig(PolicyKind::kUpdateFirst), 9);
  const RunMetrics od =
      exp::RunOnce(OutageConfig(PolicyKind::kOnDemand), 9);
  EXPECT_EQ(uf.updates_outage_deferred, 2064u);
  EXPECT_EQ(od.updates_outage_deferred, 2064u);
  EXPECT_EQ(uf.updates_shed_by_class[0], 0u);
  EXPECT_EQ(od.updates_shed_by_class[0], 10224u);
  EXPECT_EQ(od.updates_shed_by_class[1], 5324u);
  EXPECT_NEAR(uf.outage_recovery_seconds, 1.093605, 1e-9);
  EXPECT_NEAR(uf.max_stale_excursion, 0.393, 1e-6);
  EXPECT_NEAR(od.max_stale_excursion, 0.935, 1e-6);
}

}  // namespace
}  // namespace strip::core
