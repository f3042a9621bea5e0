// The invariant auditor itself, two ways:
//
//  - *seeded violations*: the hooks are driven directly with fabricated
//    invalid event sequences (no System attached — deep cross-checks
//    are skipped, the protocol checks are not) and the auditor must
//    trip the right invariant with a context dump;
//  - *real runs*: attached to a live System across every policy,
//    staleness criterion, and a fault-heavy configuration, the auditor
//    must stay silent — the simulation core actually maintains the
//    model invariants the paper's figures assume.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "check/invariant_auditor.h"
#include "core/system.h"
#include "sim/simulator.h"

namespace strip::check {
namespace {

using core::SystemObserver;
using DispatchInfo = SystemObserver::DispatchInfo;
using DispatchKind = SystemObserver::DispatchKind;
using DropReason = SystemObserver::DropReason;
using Phase = SystemObserver::Phase;
using PreemptReason = SystemObserver::PreemptReason;

db::Update MakeUpdate(std::uint64_t id, int index = 0,
                      double generation = 0.0) {
  db::Update update;
  update.id = base::UpdateId(id);
  update.object = db::ObjectId{db::ObjectClass::kLowImportance, index};
  update.generation_time = generation;
  update.arrival_time = generation;
  return update;
}

std::unique_ptr<txn::Transaction> MakeTxn(std::uint64_t id) {
  txn::Transaction::Params params;
  params.id = base::TxnId(id);
  params.value = 1.0;
  params.deadline = 100.0;
  params.computation_instructions = 1000.0;
  return std::make_unique<txn::Transaction>(params);
}

// True if any recorded violation carries the invariant token.
bool Tripped(const InvariantAuditor& auditor, const std::string& token) {
  for (const auto& v : auditor.violations()) {
    if (v.invariant == token) return true;
  }
  return false;
}

// --- seeded violations -------------------------------------------------------

TEST(AuditorSeededTest, CleanSequenceStaysClean) {
  InvariantAuditor auditor;
  auto txn = MakeTxn(7);
  auditor.OnTxnAdmitted(1.0, *txn);
  auditor.OnUpdateArrival(1.5, MakeUpdate(1, 0, 1.5));
  DispatchInfo d;
  d.kind = DispatchKind::kTxnCompute;
  d.transaction = txn.get();
  d.instructions = 100;
  auditor.OnDispatch(2.0, d);
  auditor.OnSegmentComplete(3.0, d);
  txn->set_outcome(txn::TxnOutcome::kCommitted);
  auditor.OnTransactionTerminal(3.0, *txn);
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
  EXPECT_EQ(auditor.txns_admitted(), 1u);
  EXPECT_EQ(auditor.txns_terminal(), 1u);
  EXPECT_EQ(auditor.updates_arrived(db::ObjectClass::kLowImportance), 1u);
}

TEST(AuditorSeededTest, ClockRegressionTrips) {
  InvariantAuditor auditor;
  auditor.OnUpdateArrival(5.0, MakeUpdate(1));
  auditor.OnUpdateArrival(3.0, MakeUpdate(2));
  EXPECT_FALSE(auditor.ok());
  EXPECT_TRUE(Tripped(auditor, "event-clock"));
}

TEST(AuditorSeededTest, NonFiniteTimeTrips) {
  InvariantAuditor auditor;
  auditor.OnUpdateArrival(-1.0, MakeUpdate(1));
  EXPECT_TRUE(Tripped(auditor, "event-clock"));
}

TEST(AuditorSeededTest, EventAfterRunEndTrips) {
  InvariantAuditor auditor;
  auditor.OnPhase(10.0, Phase::kRunEnd);
  auditor.OnUpdateArrival(10.0, MakeUpdate(1));
  EXPECT_TRUE(Tripped(auditor, "event-clock"));
}

TEST(AuditorSeededTest, DoubleDispatchTrips) {
  InvariantAuditor auditor;
  auto txn = MakeTxn(1);
  auditor.OnTxnAdmitted(0.0, *txn);
  DispatchInfo d;
  d.kind = DispatchKind::kTxnCompute;
  d.transaction = txn.get();
  auditor.OnDispatch(1.0, d);
  auditor.OnDispatch(2.0, d);  // the first span never closed
  EXPECT_TRUE(Tripped(auditor, "dispatch-span"));
}

TEST(AuditorSeededTest, CompleteWithoutDispatchTrips) {
  InvariantAuditor auditor;
  auto txn = MakeTxn(1);
  auditor.OnTxnAdmitted(0.0, *txn);
  DispatchInfo d;
  d.kind = DispatchKind::kTxnCompute;
  d.transaction = txn.get();
  auditor.OnSegmentComplete(1.0, d);
  EXPECT_TRUE(Tripped(auditor, "dispatch-span"));
}

TEST(AuditorSeededTest, CompleteKindMismatchTrips) {
  InvariantAuditor auditor;
  auto txn = MakeTxn(1);
  auditor.OnTxnAdmitted(0.0, *txn);
  DispatchInfo d;
  d.kind = DispatchKind::kTxnCompute;
  d.transaction = txn.get();
  auditor.OnDispatch(1.0, d);
  DispatchInfo e = d;
  e.kind = DispatchKind::kTxnViewRead;
  auditor.OnSegmentComplete(2.0, e);
  EXPECT_TRUE(Tripped(auditor, "dispatch-span"));
}

TEST(AuditorSeededTest, MalformedDispatchInfoTrips) {
  InvariantAuditor auditor;
  // A transaction kind carrying no transaction.
  DispatchInfo d;
  d.kind = DispatchKind::kTxnCompute;
  auditor.OnDispatch(1.0, d);
  EXPECT_TRUE(Tripped(auditor, "dispatch-span"));
}

TEST(AuditorSeededTest, PreemptOwnerMismatchTrips) {
  InvariantAuditor auditor;
  auto a = MakeTxn(1);
  auto b = MakeTxn(2);
  auditor.OnTxnAdmitted(0.0, *a);
  auditor.OnTxnAdmitted(0.0, *b);
  DispatchInfo d;
  d.kind = DispatchKind::kTxnCompute;
  d.transaction = a.get();
  auditor.OnDispatch(1.0, d);
  auditor.OnPreempt(2.0, *b, PreemptReason::kUpdateArrival);
  EXPECT_TRUE(Tripped(auditor, "dispatch-span"));
}

TEST(AuditorSeededTest, DoubleAdmissionTrips) {
  InvariantAuditor auditor;
  auto txn = MakeTxn(1);
  auditor.OnTxnAdmitted(0.0, *txn);
  auditor.OnTxnAdmitted(1.0, *txn);
  EXPECT_TRUE(Tripped(auditor, "txn-lifecycle"));
}

TEST(AuditorSeededTest, TerminalWithoutAdmissionTrips) {
  InvariantAuditor auditor;
  auto txn = MakeTxn(1);
  txn->set_outcome(txn::TxnOutcome::kCommitted);
  auditor.OnTransactionTerminal(1.0, *txn);
  EXPECT_TRUE(Tripped(auditor, "txn-lifecycle"));
}

TEST(AuditorSeededTest, OverloadDropWithoutAdmissionIsLegal) {
  // Admission control rejects at the door; the terminal hook is the
  // only trace those transactions leave.
  InvariantAuditor auditor;
  auto txn = MakeTxn(1);
  txn->set_outcome(txn::TxnOutcome::kOverloadDrop);
  auditor.OnTransactionTerminal(1.0, *txn);
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
}

TEST(AuditorSeededTest, TerminalWithPendingOutcomeTrips) {
  InvariantAuditor auditor;
  auto txn = MakeTxn(1);
  auditor.OnTxnAdmitted(0.0, *txn);
  auditor.OnTransactionTerminal(1.0, *txn);  // outcome still kPending
  EXPECT_TRUE(Tripped(auditor, "txn-lifecycle"));
}

TEST(AuditorSeededTest, DuplicateArrivalTrips) {
  InvariantAuditor auditor;
  auditor.OnUpdateArrival(1.0, MakeUpdate(1));
  auditor.OnUpdateArrival(2.0, MakeUpdate(1));
  EXPECT_TRUE(Tripped(auditor, "update-lifecycle"));
}

TEST(AuditorSeededTest, EnqueueWithoutArrivalTrips) {
  InvariantAuditor auditor;
  auditor.OnUpdateEnqueued(1.0, MakeUpdate(1));
  EXPECT_TRUE(Tripped(auditor, "update-lifecycle"));
}

TEST(AuditorSeededTest, EnqueueStraightFromOsQueueTrips) {
  // An update must cross the CPU (a transfer segment) to reach the
  // update queue; teleporting from the kernel buffer is a model bug.
  InvariantAuditor auditor;
  auditor.OnUpdateArrival(1.0, MakeUpdate(1));
  auditor.OnUpdateEnqueued(2.0, MakeUpdate(1));
  EXPECT_TRUE(Tripped(auditor, "update-lifecycle"));
}

TEST(AuditorSeededTest, InstallOfUnknownUpdateTrips) {
  InvariantAuditor auditor;
  auditor.OnUpdateInstalled(1.0, MakeUpdate(9), nullptr);
  EXPECT_TRUE(Tripped(auditor, "update-lifecycle"));
}

TEST(AuditorSeededTest, DropReasonIllegalForStateTrips) {
  // kOsQueueFull claims the update never left the kernel buffer, but
  // this one is already on the CPU.
  InvariantAuditor auditor;
  const db::Update update = MakeUpdate(1);
  auditor.OnUpdateArrival(1.0, update);
  DispatchInfo d;
  d.kind = DispatchKind::kUpdaterTransfer;
  d.update = &update;
  auditor.OnDispatch(2.0, d);
  auditor.OnUpdateDropped(2.5, update, DropReason::kOsQueueFull);
  EXPECT_TRUE(Tripped(auditor, "update-lifecycle"));
}

TEST(AuditorSeededTest, QueueEvictionPathIsLegal) {
  // arrival -> transfer dispatch -> enqueued -> overflow-evicted is a
  // legal life.
  InvariantAuditor auditor;
  const db::Update update = MakeUpdate(1);
  auditor.OnUpdateArrival(1.0, update);
  DispatchInfo d;
  d.kind = DispatchKind::kUpdaterTransfer;
  d.update = &update;
  auditor.OnDispatch(2.0, d);
  auditor.OnSegmentComplete(2.5, d);
  auditor.OnUpdateEnqueued(2.5, update);
  auditor.OnUpdateDropped(3.0, update, DropReason::kQueueOverflow);
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
  EXPECT_EQ(auditor.updates_dropped(db::ObjectClass::kLowImportance), 1u);
}

TEST(AuditorSeededTest, TwoUpdatesOnCpuTripsConservation) {
  InvariantAuditor auditor;
  const db::Update a = MakeUpdate(1);
  const db::Update b = MakeUpdate(2);
  auditor.OnUpdateArrival(1.0, a);
  auditor.OnUpdateArrival(1.0, b);
  DispatchInfo da;
  da.kind = DispatchKind::kUpdaterTransfer;
  da.update = &a;
  DispatchInfo db_;
  db_.kind = DispatchKind::kUpdaterTransfer;
  db_.update = &b;
  auditor.OnDispatch(2.0, da);
  auditor.OnDispatch(2.5, db_);  // first span never closed
  EXPECT_TRUE(Tripped(auditor, "update-conservation"));
}

TEST(AuditorSeededTest, OdInstallWithoutStaleReadTrips) {
  InvariantAuditor auditor;
  auto txn = MakeTxn(1);
  auditor.OnTxnAdmitted(0.0, *txn);
  const db::Update update = MakeUpdate(1);
  auditor.OnUpdateArrival(1.0, update);
  DispatchInfo d;
  d.kind = DispatchKind::kUpdaterTransfer;
  d.update = &update;
  auditor.OnDispatch(2.0, d);
  auditor.OnSegmentComplete(2.5, d);
  auditor.OnUpdateEnqueued(2.5, update);
  auditor.OnUpdateInstalled(3.0, update, txn.get());
  EXPECT_TRUE(Tripped(auditor, "od-causality"));
}

TEST(AuditorSeededTest, OdInstallAfterStaleReadIsLegal) {
  InvariantAuditor auditor;
  auto txn = MakeTxn(1);
  auditor.OnTxnAdmitted(0.0, *txn);
  const db::Update update = MakeUpdate(1);
  auditor.OnUpdateArrival(1.0, update);
  DispatchInfo d;
  d.kind = DispatchKind::kUpdaterTransfer;
  d.update = &update;
  auditor.OnDispatch(2.0, d);
  auditor.OnSegmentComplete(2.5, d);
  auditor.OnUpdateEnqueued(2.5, update);
  auditor.OnStaleRead(3.0, *txn, update.object);
  auditor.OnUpdateInstalled(3.5, update, txn.get());
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
}

TEST(AuditorSeededTest, OdInstallByDeadTxnTrips) {
  InvariantAuditor auditor;
  auto txn = MakeTxn(1);
  auditor.OnTxnAdmitted(0.0, *txn);
  const db::Update update = MakeUpdate(1);
  auditor.OnUpdateArrival(1.0, update);
  DispatchInfo d;
  d.kind = DispatchKind::kUpdaterTransfer;
  d.update = &update;
  auditor.OnDispatch(2.0, d);
  auditor.OnSegmentComplete(2.5, d);
  auditor.OnUpdateEnqueued(2.5, update);
  auditor.OnStaleRead(3.0, *txn, update.object);
  txn->set_outcome(txn::TxnOutcome::kStaleAbort);
  auditor.OnTransactionTerminal(3.2, *txn);
  auditor.OnUpdateInstalled(3.5, update, txn.get());
  EXPECT_TRUE(Tripped(auditor, "od-causality"));
}

TEST(AuditorSeededTest, FaultWindowEndWithoutBeginTrips) {
  InvariantAuditor auditor;
  SystemObserver::FaultWindowInfo window;
  window.kind = "outage";
  window.label = "outage@10+5";
  window.begin = false;
  window.start = 10;
  window.end = 15;
  auditor.OnFaultWindow(15.0, window);
  EXPECT_TRUE(Tripped(auditor, "fault-bracketing"));
}

TEST(AuditorSeededTest, FaultWindowDoubleBeginTrips) {
  InvariantAuditor auditor;
  SystemObserver::FaultWindowInfo window;
  window.kind = "burst";
  window.label = "burst@1+2";
  window.begin = true;
  window.start = 1;
  window.end = 3;
  auditor.OnFaultWindow(1.0, window);
  auditor.OnFaultWindow(1.5, window);
  EXPECT_TRUE(Tripped(auditor, "fault-bracketing"));
}

TEST(AuditorSeededTest, FaultWindowOffScheduleTrips) {
  InvariantAuditor auditor;
  SystemObserver::FaultWindowInfo window;
  window.kind = "loss";
  window.label = "loss@5+5";
  window.begin = true;
  window.start = 5;
  window.end = 10;
  auditor.OnFaultWindow(7.0, window);  // fires 2s late
  EXPECT_TRUE(Tripped(auditor, "fault-bracketing"));
}

TEST(AuditorSeededTest, WellBracketedFaultWindowIsLegal) {
  InvariantAuditor auditor;
  SystemObserver::FaultWindowInfo window;
  window.kind = "outage";
  window.label = "outage@2+3";
  window.start = 2;
  window.end = 5;
  window.begin = true;
  auditor.OnFaultWindow(2.0, window);
  window.begin = false;
  auditor.OnFaultWindow(5.0, window);
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
}

TEST(AuditorSeededTest, ViolationCarriesContextDump) {
  InvariantAuditor auditor;
  auditor.OnUpdateArrival(1.0, MakeUpdate(1));
  auditor.OnUpdateArrival(2.0, MakeUpdate(2));
  auditor.OnUpdateArrival(1.5, MakeUpdate(3));  // clock regression
  ASSERT_FALSE(auditor.ok());
  const auto& v = auditor.violations().front();
  EXPECT_EQ(v.invariant, "event-clock");
  EXPECT_DOUBLE_EQ(v.time, 1.5);
  // The context dump names the preceding events.
  EXPECT_NE(v.context.find("update-arrival"), std::string::npos);
  EXPECT_NE(v.context.find("id=1"), std::string::npos);
  EXPECT_NE(v.context.find("id=2"), std::string::npos);
  // And the report embeds both message and context.
  const std::string report = auditor.Report();
  EXPECT_NE(report.find("event-clock"), std::string::npos);
  EXPECT_NE(report.find("recent events"), std::string::npos);
}

TEST(AuditorSeededTest, ViolationCapKeepsCounting) {
  InvariantAuditor::Options options;
  options.max_violations = 2;
  InvariantAuditor auditor(options);
  for (int i = 0; i < 5; ++i) {
    auditor.OnUpdateEnqueued(1.0, MakeUpdate(100 + i));  // all unknown
  }
  EXPECT_EQ(auditor.violations().size(), 2u);
  EXPECT_EQ(auditor.total_violations(), 5u);
  EXPECT_NE(auditor.Report().find("further violation"),
            std::string::npos);
}

// --- real runs ---------------------------------------------------------------

core::RunMetrics RunAudited(const core::Config& config, std::uint64_t seed,
                            InvariantAuditor& auditor) {
  sim::Simulator simulator;
  core::System system(&simulator, config, base::RngSeed(seed));
  auditor.set_system(&system);
  system.AddObserver(&auditor);
  return system.Run();
}

TEST(AuditorRealRunTest, EveryPolicyRunsClean) {
  for (core::PolicyKind policy :
       {core::PolicyKind::kUpdateFirst, core::PolicyKind::kTransactionFirst,
        core::PolicyKind::kSplitUpdates, core::PolicyKind::kOnDemand,
        core::PolicyKind::kFixedFraction}) {
    SCOPED_TRACE(core::PolicyKindName(policy));
    core::Config config;
    config.policy = policy;
    config.sim_seconds = 30.0;
    InvariantAuditor auditor;
    RunAudited(config, 11, auditor);
    EXPECT_TRUE(auditor.ok()) << auditor.Report();
    EXPECT_GT(auditor.events_seen(), 0u);
  }
}

TEST(AuditorRealRunTest, EveryStalenessCriterionRunsClean) {
  for (db::StalenessCriterion criterion :
       {db::StalenessCriterion::kMaxAge,
        db::StalenessCriterion::kUnappliedUpdate,
        db::StalenessCriterion::kCombined,
        db::StalenessCriterion::kMaxAgeArrival}) {
    SCOPED_TRACE(db::StalenessCriterionName(criterion));
    core::Config config;
    config.policy = core::PolicyKind::kOnDemand;
    config.staleness = criterion;
    config.sim_seconds = 30.0;
    config.alpha = 0.5;  // tight: plenty of staleness traffic
    InvariantAuditor auditor;
    RunAudited(config, 7, auditor);
    EXPECT_TRUE(auditor.ok()) << auditor.Report();
  }
}

// With partial updates the generation the tracker ages is the oldest
// attribute's, read from the shared object record; the auditor
// re-derives it from Database::generation_time and the queue.
TEST(AuditorRealRunTest, PartialUpdateRunsClean) {
  for (db::StalenessCriterion criterion :
       {db::StalenessCriterion::kMaxAge, db::StalenessCriterion::kCombined}) {
    SCOPED_TRACE(db::StalenessCriterionName(criterion));
    core::Config config;
    config.policy = core::PolicyKind::kOnDemand;
    config.staleness = criterion;
    config.n_attributes = 4;
    config.sim_seconds = 30.0;
    config.alpha = 0.5;
    InvariantAuditor auditor;
    const core::RunMetrics metrics = RunAudited(config, 7, auditor);
    EXPECT_TRUE(auditor.ok()) << auditor.Report();
    EXPECT_GT(metrics.updates_installed, 0u);
  }
}

TEST(AuditorRealRunTest, FaultHeavyRunStaysClean) {
  core::Config config;
  config.policy = core::PolicyKind::kOnDemand;
  config.sim_seconds = 60.0;
  config.faults =
      "outage@10+5:speedup=4;burst@30+10:factor=3;loss@20+5:p=0.2;"
      "dup@25+5:p=0.2;reorder@40+5:p=0.3;cpu@45+5:factor=0.5";
  config.shed_by_importance = true;
  config.overload_governor = true;
  config.uq_max = 64;
  InvariantAuditor auditor;
  RunAudited(config, 11, auditor);
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
}

TEST(AuditorRealRunTest, TalliesMatchRunMetrics) {
  core::Config config;
  config.sim_seconds = 30.0;
  InvariantAuditor auditor;
  RunAudited(config, 3, auditor);
  ASSERT_TRUE(auditor.ok()) << auditor.Report();
  // Everything that arrived was resolved or is still queued — and the
  // auditor saw every admission get a terminal (run-end finalizes all).
  EXPECT_GT(auditor.updates_arrived(db::ObjectClass::kLowImportance), 0u);
  EXPECT_GT(auditor.txns_admitted(), 0u);
}

TEST(AuditorRealRunTest, AuditorDoesNotPerturbMetrics) {
  core::Config config;
  config.policy = core::PolicyKind::kOnDemand;
  config.sim_seconds = 30.0;
  config.alpha = 0.5;

  sim::Simulator bare_sim;
  core::System bare(&bare_sim, config, base::RngSeed(5));
  const core::RunMetrics plain = bare.Run();

  InvariantAuditor auditor;
  const core::RunMetrics audited = RunAudited(config, 5, auditor);
  ASSERT_TRUE(auditor.ok()) << auditor.Report();

  EXPECT_EQ(plain.ToString(), audited.ToString());
  EXPECT_EQ(plain.av(), audited.av());
  EXPECT_EQ(plain.p_success(), audited.p_success());
  EXPECT_EQ(plain.f_old_low, audited.f_old_low);
  EXPECT_EQ(plain.f_old_high, audited.f_old_high);
}

}  // namespace
}  // namespace strip::check
