// Cross-validation: the closed-form predictions of exp/analysis.h
// against hand arithmetic AND against the simulator itself. A
// disagreement here means either the math or the event engine drifted.

#include "exp/analysis.h"

#include <gtest/gtest.h>

#include "exp/experiment.h"

namespace strip::exp {
namespace {

TEST(AnalysisTest, BaselineUpdateDemandIsAboutAFifth) {
  const core::Config config;
  // 400/s * 24000 instr / 50 MIPS.
  EXPECT_NEAR(PredictedUpdateDemand(config), 0.192, 1e-12);
}

TEST(AnalysisTest, UpdateDemandScalesWithRateAndCost) {
  core::Config config;
  config.lambda_u = 200;
  EXPECT_NEAR(PredictedUpdateDemand(config), 0.096, 1e-12);
  config.x_update = 44000;  // install = 48000 instr
  EXPECT_NEAR(PredictedUpdateDemand(config), 0.192, 1e-12);
}

TEST(AnalysisTest, TransactionDemandAtBaseline) {
  const core::Config config;
  // 10/s * (0.12 + 2*4000/50e6) = 10 * 0.12016.
  EXPECT_NEAR(PredictedTransactionDemand(config), 1.2016, 1e-12);
}

TEST(AnalysisTest, SaturationKneeNearTen) {
  const core::Config config;
  // (1 - 0.192) / 0.12016 = 6.72... — the *demand* knee; the paper's
  // empirical saturation at ~10 reflects TF-style policies shedding
  // update work. For UF the knee is exact.
  EXPECT_NEAR(PredictedSaturationLambdaT(config), 0.808 / 0.12016, 1e-9);
}

TEST(AnalysisTest, StalenessFloorAtBaseline) {
  const core::Config config;
  // lambda_obj = 400*0.5/500 = 0.4; e^{-0.4*7} = e^{-2.8}.
  EXPECT_NEAR(
      PredictedStalenessFloor(config, db::ObjectClass::kLowImportance),
      std::exp(-2.8), 1e-12);
  EXPECT_NEAR(
      PredictedStalenessFloor(config, db::ObjectClass::kHighImportance),
      std::exp(-2.8), 1e-12);
}

TEST(AnalysisTest, StalenessFloorNeverRefreshedClassIsOne) {
  core::Config config;
  config.p_ul = 1.0;  // every update targets the low partition
  EXPECT_DOUBLE_EQ(
      PredictedStalenessFloor(config, db::ObjectClass::kHighImportance),
      1.0);
  EXPECT_LT(
      PredictedStalenessFloor(config, db::ObjectClass::kLowImportance),
      0.01);
}

TEST(AnalysisTest, FreshTxnProbabilityBounds) {
  const core::Config config;
  const double p = PredictedFreshTxnProbability(config);
  // Two reads on average against a ~6% floor: around 0.85-0.92.
  EXPECT_GT(p, 0.82);
  EXPECT_LT(p, 0.95);
  // Zero floor -> certainty.
  core::Config fast;
  fast.alpha = 1e9;
  EXPECT_NEAR(PredictedFreshTxnProbability(fast), 1.0, 1e-9);
}

// --- simulation cross-checks -------------------------------------------------

// One run of the paper's uniprocessor model: a one-shard cluster.
core::RunMetrics RunOne(const core::Config& config) {
  core::ShardedConfig one_shard;
  one_shard.base = config;
  return RunOnce(one_shard, 3);
}

TEST(AnalysisCrossCheckTest, UfUpdateUtilizationMatchesPrediction) {
  core::Config config;
  config.policy = core::PolicyKind::kUpdateFirst;
  config.sim_seconds = 80;
  const core::RunMetrics m = RunOne(config);
  EXPECT_NEAR(m.rho_u(), PredictedUpdateDemand(config), 0.01);
}

TEST(AnalysisCrossCheckTest, LightLoadTxnUtilizationMatchesPrediction) {
  core::Config config;
  config.lambda_t = 3;  // far below saturation: no losses
  config.sim_seconds = 80;
  const core::RunMetrics m = RunOne(config);
  EXPECT_NEAR(m.rho_t(), PredictedTransactionDemand(config), 0.03);
}

TEST(AnalysisCrossCheckTest, UfStalenessMatchesFloor) {
  core::Config config;
  config.policy = core::PolicyKind::kUpdateFirst;
  config.sim_seconds = 120;
  const core::RunMetrics m = RunOne(config);
  const double floor =
      PredictedStalenessFloor(config, db::ObjectClass::kLowImportance);
  EXPECT_NEAR(m.f_old_low, floor, 0.012);
  EXPECT_NEAR(m.f_old_high, floor, 0.012);
}

TEST(AnalysisCrossCheckTest, FloorTracksAlpha) {
  for (double alpha : {3.0, 5.0, 9.0}) {
    core::Config config;
    config.policy = core::PolicyKind::kUpdateFirst;
    config.alpha = alpha;
    config.sim_seconds = 100;
    const core::RunMetrics m = RunOne(config);
    EXPECT_NEAR(m.f_old_low,
                PredictedStalenessFloor(
                    config, db::ObjectClass::kLowImportance),
                0.02)
        << "alpha=" << alpha;
  }
}

TEST(AnalysisCrossCheckTest, LightLoadSuccessMatchesFreshProbability) {
  core::Config config;
  config.policy = core::PolicyKind::kUpdateFirst;
  config.lambda_t = 2;  // essentially every txn commits
  config.sim_seconds = 400;
  // ~800 commits: binomial noise ~0.012 sd at p ~ 0.88.
  core::ShardedConfig one_shard;
  one_shard.base = config;
  const auto runs = Replicate(one_shard, 2, 3);
  const double p_success =
      (runs[0].p_success() + runs[1].p_success()) / 2;
  EXPECT_NEAR(p_success, PredictedFreshTxnProbability(config), 0.04);
}

}  // namespace
}  // namespace strip::exp
