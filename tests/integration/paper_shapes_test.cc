// Integration tests pinning the paper's headline qualitative results.
//
// Each test asserts the *shape* of one published finding — orderings,
// crossovers, directions of effects — on short runs with fixed seeds.
// Absolute values are checked only where the paper's own model pins
// them (e.g., the update stream's CPU demand).

#include <gtest/gtest.h>

#include "exp/experiment.h"

namespace strip {
namespace {

using core::Config;
using core::PolicyKind;
using core::RunMetrics;

RunMetrics RunPolicy(PolicyKind policy, double lambda_t, double seconds = 60.0,
               void (*tweak)(Config&) = nullptr) {
  core::ShardedConfig one_shard;
  Config& config = one_shard.base;
  config.policy = policy;
  config.lambda_t = lambda_t;
  config.sim_seconds = seconds;
  if (tweak != nullptr) tweak(config);
  return exp::RunOnce(one_shard, 7);
}

// Figure 3(b): installing the full 400/s stream costs about a fifth of
// the CPU, and UF pays it regardless of transaction load.
TEST(PaperShapes, Fig3UpdateStreamDemandsFifthOfCpu) {
  for (double lambda_t : {1.0, 10.0, 25.0}) {
    const RunMetrics uf = RunPolicy(PolicyKind::kUpdateFirst, lambda_t);
    EXPECT_NEAR(uf.rho_u(), 0.19, 0.025) << "lambda_t=" << lambda_t;
  }
}

// Figure 3(b): TF's update share collapses as transactions crowd it out.
TEST(PaperShapes, Fig3TfUpdateShareCollapsesUnderLoad) {
  const RunMetrics light = RunPolicy(PolicyKind::kTransactionFirst, 1);
  const RunMetrics heavy = RunPolicy(PolicyKind::kTransactionFirst, 20);
  EXPECT_NEAR(light.rho_u(), 0.19, 0.025);
  EXPECT_LT(heavy.rho_u(), 0.02);
}

// Figure 3: total utilization saturates at 1 by lambda_t ~ 10.
TEST(PaperShapes, Fig3TotalUtilizationSaturates) {
  for (PolicyKind policy :
       {PolicyKind::kUpdateFirst, PolicyKind::kTransactionFirst,
        PolicyKind::kOnDemand}) {
    const RunMetrics m = RunPolicy(policy, 15);
    EXPECT_GT(m.rho_total(), 0.97);
    EXPECT_LE(m.rho_total(), 1.0 + 1e-9);
  }
}

// Figure 4(a): TF/OD miss fewer deadlines than UF at every load.
TEST(PaperShapes, Fig4TfOdMissFewestDeadlines) {
  for (double lambda_t : {10.0, 20.0}) {
    const RunMetrics uf = RunPolicy(PolicyKind::kUpdateFirst, lambda_t);
    const RunMetrics tf = RunPolicy(PolicyKind::kTransactionFirst, lambda_t);
    const RunMetrics od = RunPolicy(PolicyKind::kOnDemand, lambda_t);
    EXPECT_LT(tf.p_md(), uf.p_md());
    EXPECT_LT(od.p_md(), uf.p_md());
  }
}

// Figure 4(b): overload *raises* the value returned — the scheduler
// picks the best opportunities — and TF/OD earn the most.
TEST(PaperShapes, Fig4ValueGrowsWithLoad) {
  for (PolicyKind policy :
       {PolicyKind::kUpdateFirst, PolicyKind::kTransactionFirst}) {
    const RunMetrics at10 = RunPolicy(policy, 10);
    const RunMetrics at25 = RunPolicy(policy, 25);
    EXPECT_GT(at25.av(), at10.av());
  }
  EXPECT_GT(RunPolicy(PolicyKind::kTransactionFirst, 25).av(),
            RunPolicy(PolicyKind::kUpdateFirst, 25).av());
}

// Figure 5: UF keeps staleness under 10% at any load; TF's data is
// mostly stale past saturation; SU protects exactly the high partition.
TEST(PaperShapes, Fig5StalenessSplitsByPolicy) {
  const RunMetrics uf = RunPolicy(PolicyKind::kUpdateFirst, 20);
  EXPECT_LT(uf.f_old_low, 0.10);
  EXPECT_LT(uf.f_old_high, 0.10);
  const RunMetrics tf = RunPolicy(PolicyKind::kTransactionFirst, 20);
  EXPECT_GT(tf.f_old_low, 0.8);
  EXPECT_GT(tf.f_old_high, 0.8);
  const RunMetrics su = RunPolicy(PolicyKind::kSplitUpdates, 20);
  EXPECT_LT(su.f_old_high, 0.10);
  EXPECT_GT(su.f_old_low, 0.8);
}

// Figure 5: OD stays slightly fresher than TF (on-demand installs).
TEST(PaperShapes, Fig5OdSlightlyFresherThanTf) {
  const RunMetrics tf = RunPolicy(PolicyKind::kTransactionFirst, 15);
  const RunMetrics od = RunPolicy(PolicyKind::kOnDemand, 15);
  EXPECT_LE(od.f_old_high, tf.f_old_high);
}

// Figure 6(a): the p_success ranking is OD > UF > SU > TF at
// saturation and beyond.
TEST(PaperShapes, Fig6SuccessRankingAtSaturation) {
  for (double lambda_t : {10.0, 20.0}) {
    const double od = RunPolicy(PolicyKind::kOnDemand, lambda_t).p_success();
    const double uf = RunPolicy(PolicyKind::kUpdateFirst, lambda_t).p_success();
    const double su = RunPolicy(PolicyKind::kSplitUpdates, lambda_t).p_success();
    const double tf =
        RunPolicy(PolicyKind::kTransactionFirst, lambda_t).p_success();
    EXPECT_GT(od, uf) << "lambda_t=" << lambda_t;
    EXPECT_GT(uf, su) << "lambda_t=" << lambda_t;
    EXPECT_GT(su, tf) << "lambda_t=" << lambda_t;
  }
}

// Figure 6(b): for committed transactions, staleness is a non-issue
// under OD and UF but a big one under TF.
TEST(PaperShapes, Fig6NontardyFreshness) {
  const double od = RunPolicy(PolicyKind::kOnDemand, 15).p_suc_nontardy();
  const double uf = RunPolicy(PolicyKind::kUpdateFirst, 15).p_suc_nontardy();
  const double tf = RunPolicy(PolicyKind::kTransactionFirst, 15).p_suc_nontardy();
  EXPECT_GT(od, 0.8);
  EXPECT_GT(uf, 0.8);
  EXPECT_LT(tf, 0.4);
}

// Figure 7(a): heavyweight installs hurt UF and SU, not TF/OD.
TEST(PaperShapes, Fig7HeavyInstallsHurtUfSu) {
  auto heavy = [](Config& c) { c.x_update = 50000; };
  const double uf_base = RunPolicy(PolicyKind::kUpdateFirst, 10).av();
  const double uf_heavy = RunPolicy(PolicyKind::kUpdateFirst, 10, 60.0, heavy).av();
  EXPECT_LT(uf_heavy, uf_base - 1.0);
  const double tf_base = RunPolicy(PolicyKind::kTransactionFirst, 10).av();
  const double tf_heavy =
      RunPolicy(PolicyKind::kTransactionFirst, 10, 60.0, heavy).av();
  EXPECT_NEAR(tf_heavy, tf_base, 0.5);
}

// Figure 7(b): queue-management cost hits the queue-based schemes and
// leaves UF untouched.
TEST(PaperShapes, Fig7QueueCostsHitQueueUsers) {
  auto costly = [](Config& c) { c.x_queue = 5000; };
  const double tf_base = RunPolicy(PolicyKind::kTransactionFirst, 10).av();
  const double tf_costly =
      RunPolicy(PolicyKind::kTransactionFirst, 10, 60.0, costly).av();
  EXPECT_LT(tf_costly, tf_base - 2.0);
  const double uf_base = RunPolicy(PolicyKind::kUpdateFirst, 10).av();
  const double uf_costly =
      RunPolicy(PolicyKind::kUpdateFirst, 10, 60.0, costly).av();
  EXPECT_NEAR(uf_costly, uf_base, 0.3);
}

// Figure 8: only OD pays for expensive queue scans, and a large enough
// scan cost drops it below UF.
TEST(PaperShapes, Fig8ScanCostOnlyHurtsOd) {
  auto costly = [](Config& c) { c.x_scan = 8000; };
  const double od_base = RunPolicy(PolicyKind::kOnDemand, 10).av();
  const double od_costly = RunPolicy(PolicyKind::kOnDemand, 10, 60.0, costly).av();
  const double uf_costly =
      RunPolicy(PolicyKind::kUpdateFirst, 10, 60.0, costly).av();
  const double uf_base = RunPolicy(PolicyKind::kUpdateFirst, 10).av();
  EXPECT_LT(od_costly, od_base - 2.0);
  EXPECT_NEAR(uf_costly, uf_base, 0.3);
  EXPECT_LT(od_costly, uf_costly);  // the crossover the paper calls out
}

// Figure 9(b): raising the update rate drains value from UF and SU but
// not from TF/OD.
TEST(PaperShapes, Fig9UpdateRateDrainsUfSu) {
  auto fast = [](Config& c) { c.lambda_u = 600; };
  const double uf_400 = RunPolicy(PolicyKind::kUpdateFirst, 10).av();
  const double uf_600 = RunPolicy(PolicyKind::kUpdateFirst, 10, 60.0, fast).av();
  EXPECT_LT(uf_600, uf_400 - 0.4);
  const double od_400 = RunPolicy(PolicyKind::kOnDemand, 10).av();
  const double od_600 = RunPolicy(PolicyKind::kOnDemand, 10, 60.0, fast).av();
  EXPECT_NEAR(od_600, od_400, 0.5);
}

// Figure 10(b): with N_l, N_h scaled to hold (N/alpha) constant, alpha
// itself barely matters.
TEST(PaperShapes, Fig10AlphaWithScaledNIsFlat) {
  auto small = [](Config& c) {
    c.alpha = 3.5;
    c.n_low = 250;
    c.n_high = 250;
  };
  const double base = RunPolicy(PolicyKind::kOnDemand, 10).av();
  const double scaled = RunPolicy(PolicyKind::kOnDemand, 10, 60.0, small).av();
  EXPECT_NEAR(scaled, base, 0.6);
}

// Figure 11: FIFO service keeps data staler than LIFO for TF near
// saturation.
TEST(PaperShapes, Fig11FifoStalerThanLifo) {
  auto lifo = [](Config& c) {
    c.queue_discipline = core::QueueDiscipline::kLifo;
  };
  const RunMetrics fifo = RunPolicy(PolicyKind::kTransactionFirst, 10);
  const RunMetrics lifo_run =
      RunPolicy(PolicyKind::kTransactionFirst, 10, 60.0, lifo);
  EXPECT_GT(fifo.f_old_low, lifo_run.f_old_low);
  EXPECT_LE(fifo.p_success(), lifo_run.p_success() + 0.02);
}

// Figures 12-14 (abort-on-stale scenario).
TEST(PaperShapes, Fig12AbortsFreshenTfHighData) {
  auto abort_mode = [](Config& c) { c.abort_on_stale = true; };
  const RunMetrics no_abort = RunPolicy(PolicyKind::kTransactionFirst, 10);
  const RunMetrics with_abort =
      RunPolicy(PolicyKind::kTransactionFirst, 10, 60.0, abort_mode);
  EXPECT_LT(with_abort.f_old_high, 0.3);
  EXPECT_GT(no_abort.f_old_high, 0.6);
}

TEST(PaperShapes, Fig13OdWinsValueUnderAborts) {
  auto abort_mode = [](Config& c) { c.abort_on_stale = true; };
  const double od = RunPolicy(PolicyKind::kOnDemand, 20, 60.0, abort_mode).av();
  const double uf = RunPolicy(PolicyKind::kUpdateFirst, 20, 60.0, abort_mode).av();
  const double su = RunPolicy(PolicyKind::kSplitUpdates, 20, 60.0, abort_mode).av();
  const double tf =
      RunPolicy(PolicyKind::kTransactionFirst, 20, 60.0, abort_mode).av();
  EXPECT_GT(od, su);
  EXPECT_GT(su, uf);  // the paper's surprise: SU beats UF and TF
  EXPECT_GT(su, tf);
  EXPECT_LT(tf, uf);  // TF is hurt the most
}

TEST(PaperShapes, Fig14OdWinsSuccessUnderAborts) {
  auto abort_mode = [](Config& c) { c.abort_on_stale = true; };
  const double od =
      RunPolicy(PolicyKind::kOnDemand, 15, 60.0, abort_mode).p_success();
  const double uf =
      RunPolicy(PolicyKind::kUpdateFirst, 15, 60.0, abort_mode).p_success();
  EXPECT_GT(od, uf + 0.05);
}

// Figure 15: the later view data is read (large p_view), the worse,
// and TF suffers the most.
TEST(PaperShapes, Fig15LateReadsWasteWork) {
  auto late = [](Config& c) {
    c.abort_on_stale = true;
    c.p_view = 0.8;
  };
  auto early = [](Config& c) { c.abort_on_stale = true; };
  const double tf_early =
      RunPolicy(PolicyKind::kTransactionFirst, 10, 60.0, early).av();
  const double tf_late =
      RunPolicy(PolicyKind::kTransactionFirst, 10, 60.0, late).av();
  const double od_early = RunPolicy(PolicyKind::kOnDemand, 10, 60.0, early).av();
  const double od_late = RunPolicy(PolicyKind::kOnDemand, 10, 60.0, late).av();
  EXPECT_LT(tf_late, tf_early - 3.0);       // TF collapses
  EXPECT_GT(od_late, od_early - 1.0);       // OD barely moves
}

// Figure 16: the ranking persists under the UU criterion, with UF
// perfectly fresh by construction.
TEST(PaperShapes, Fig16UuRankingPersists) {
  auto uu = [](Config& c) {
    c.staleness = db::StalenessCriterion::kUnappliedUpdate;
  };
  const double od = RunPolicy(PolicyKind::kOnDemand, 10, 60.0, uu).p_success();
  const double uf = RunPolicy(PolicyKind::kUpdateFirst, 10, 60.0, uu).p_success();
  const double su = RunPolicy(PolicyKind::kSplitUpdates, 10, 60.0, uu).p_success();
  const double tf =
      RunPolicy(PolicyKind::kTransactionFirst, 10, 60.0, uu).p_success();
  EXPECT_GT(od, uf);
  EXPECT_GT(uf, su);
  EXPECT_GT(su, tf);
}

}  // namespace
}  // namespace strip
