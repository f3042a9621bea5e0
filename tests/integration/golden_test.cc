// Golden regression locks.
//
// Runs are pure functions of (Config, seed), so the baseline metrics
// for seed 1 over 50 simulated seconds are constants of the
// implementation. These tests pin them. A failure here means the
// model's behaviour changed — if the change is intentional (a cost
// model fix, a scheduling refinement), re-derive the constants with
//   ./build/tools/strip_sim --policy=<P> --sim_seconds=50 --quiet
// and update; if not, it caught a regression no invariant test could.

#include <gtest/gtest.h>

#include "exp/experiment.h"

namespace strip {
namespace {

struct Golden {
  core::PolicyKind policy;
  double p_md;
  double p_success;
  double av;
  double rho_t;
  double rho_u;
  double f_old_l;
  double f_old_h;
};

class GoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenTest, BaselineSeed1FiftySecondsIsPinned) {
  const Golden& golden = GetParam();
  core::ShardedConfig config;
  config.base.policy = golden.policy;
  config.base.sim_seconds = 50.0;
  const core::RunMetrics m = exp::RunOnce(config, 1);
  constexpr double kTol = 1e-3;  // the pins are printed to 4 decimals
  EXPECT_NEAR(m.p_md(), golden.p_md, kTol);
  EXPECT_NEAR(m.p_success(), golden.p_success, kTol);
  EXPECT_NEAR(m.av(), golden.av, kTol);
  EXPECT_NEAR(m.rho_t(), golden.rho_t, kTol);
  EXPECT_NEAR(m.rho_u(), golden.rho_u, kTol);
  EXPECT_NEAR(m.f_old_low, golden.f_old_l, kTol);
  EXPECT_NEAR(m.f_old_high, golden.f_old_h, kTol);
}

INSTANTIATE_TEST_SUITE_P(
    PaperBaseline, GoldenTest,
    ::testing::Values(
        Golden{core::PolicyKind::kUpdateFirst, 0.3552, 0.5791, 11.5135,
               0.7805, 0.1889, 0.0490, 0.0486},
        Golden{core::PolicyKind::kTransactionFirst, 0.2131, 0.1742,
               12.9663, 0.9236, 0.0743, 0.7727, 0.7751},
        Golden{core::PolicyKind::kSplitUpdates, 0.2793, 0.4949, 12.3967,
               0.8602, 0.1376, 0.7199, 0.0486},
        Golden{core::PolicyKind::kOnDemand, 0.2131, 0.7152, 12.9411,
               0.9232, 0.0747, 0.7331, 0.7120}),
    [](const ::testing::TestParamInfo<Golden>& param_info) {
      return core::PolicyKindName(param_info.param.policy);
    });

}  // namespace
}  // namespace strip
