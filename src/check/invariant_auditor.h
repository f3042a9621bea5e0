// Online validation of the simulation model's invariants.
//
// The paper's figures are all derived from a handful of accounting
// identities — staleness integrals, queue conservation, one CPU owner
// at a time — that the simulation core maintains implicitly. The
// InvariantAuditor makes them explicit: it attaches through the
// ObserverBus like any other observer and checks, at every hook, that
// the event stream the System emits is one a correct implementation of
// the Section 3 model could have produced.
//
// Checked invariants (stable tokens used in violation records):
//
//   event-clock        hook timestamps are finite, non-negative, and
//                      non-decreasing; nothing fires after run-end
//   dispatch-span      every OnDispatch is closed by exactly one
//                      matching OnSegmentComplete / OnPreempt before
//                      the next dispatch; DispatchInfo is well-formed
//                      (owner matches kind, instructions finite >= 0)
//   txn-lifecycle      admitted exactly once, referenced only while
//                      live, exactly one terminal with a real outcome
//                      (overload drops are the one terminal allowed
//                      without admission)
//   update-lifecycle   every update follows arrival -> OS queue ->
//                      [update queue ->] install/drop with drop
//                      reasons legal for the state they fire from
//   update-conservation  per importance class, at every scheduler
//                      settle point: arrived == installed + dropped +
//                      in OS queue + in update queue + on the CPU
//   queue-accounting   the auditor's own depth counters match the
//                      System's live OsQueue / UpdateQueue sizes and
//                      bounds (and per-class UpdateQueue splits)
//   txn-census         the auditor's live-transaction set matches
//                      System::live_txn_count()
//   od-causality       every OnUpdateInstalled(on_demand_by=T) follows
//                      an OnStaleRead by T for the same object
//   stale-conformance  an object the tracker reports fresh/stale
//                      satisfies the active criterion, recomputed from
//                      the database and update queue (spot-checked at
//                      every stale read and install, full-database
//                      sweep at phase boundaries)
//   fault-bracketing   fault windows begin/end alternately per label,
//                      at their scheduled boundaries, and never go
//                      negative-depth
//
// A violation records the offending sim time, a one-line message, and
// a flight-recorder-style dump of the most recent hook events for
// context. The auditor is read-only: attaching it never perturbs the
// simulation (verified by a byte-identity test on telemetry output).
//
// Typical use (tools/strip_sim --audit):
//
//   check::InvariantAuditor auditor;
//   auditor.set_system(&system);
//   core::ScopedObserver scoped(&system.observer_bus(), &auditor);
//   system.Run();
//   if (!auditor.ok()) { std::cerr << auditor.Report(); ... }
//
// Tests can also drive the hooks directly (no System) to verify the
// auditor trips on fabricated invalid sequences; deep cross-checks
// against live queues are simply skipped when no system is attached.

#ifndef STRIP_CHECK_INVARIANT_AUDITOR_H_
#define STRIP_CHECK_INVARIANT_AUDITOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/strong_types.h"
#include "core/observer.h"
#include "core/system.h"
#include "db/object.h"

namespace strip::check {

class InvariantAuditor : public core::SystemObserver {
 public:
  struct Options {
    // Violations kept verbatim; further ones only bump the total.
    std::size_t max_violations = 16;
    // Recent hook events retained for the context dump.
    std::size_t context_depth = 32;
    // Fail hard (STRIP_CHECK) on the first violation instead of
    // recording it. For debugging under a debugger / in CI triage.
    bool abort_on_violation = false;
  };

  struct Violation {
    std::string invariant;  // stable token, e.g. "update-conservation"
    double time = 0;        // sim time the violation was detected at
    std::string message;    // one-line description
    std::string context;    // rendered recent-event ring
  };

  InvariantAuditor() : InvariantAuditor(Options{}) {}
  explicit InvariantAuditor(const Options& options);

  // Enables the deep cross-checks (queue-accounting, txn-census,
  // stale-conformance) against the audited System's live state. The
  // system must outlive this auditor's registration. Attach before the
  // run starts — the auditor assumes it sees the hook stream from the
  // beginning.
  void set_system(const core::System* system) { system_ = system; }

  // --- results -------------------------------------------------------------

  bool ok() const { return total_violations_ == 0; }
  // Total violations detected (recorded + dropped past the cap).
  std::uint64_t total_violations() const { return total_violations_; }
  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t events_seen() const { return events_seen_; }

  // Multi-line report of every recorded violation with its context
  // dump; "" when ok().
  std::string Report() const;

  // --- audit tallies (tests, telemetry) ------------------------------------

  std::uint64_t updates_arrived(db::ObjectClass cls) const {
    return counts_[Cls(cls)].arrived;
  }
  std::uint64_t updates_installed(db::ObjectClass cls) const {
    return counts_[Cls(cls)].installed;
  }
  std::uint64_t updates_dropped(db::ObjectClass cls) const {
    return counts_[Cls(cls)].dropped;
  }
  std::uint64_t txns_admitted() const { return txns_admitted_; }
  std::uint64_t txns_terminal() const { return txns_terminal_; }

  // --- SystemObserver ------------------------------------------------------

  void OnTransactionTerminal(sim::Time now,
                             const txn::Transaction& transaction) override;
  void OnUpdateInstalled(sim::Time now, const db::Update& update,
                         const txn::Transaction* on_demand_by) override;
  void OnUpdateDropped(sim::Time now, const db::Update& update,
                       DropReason reason) override;
  void OnStaleRead(sim::Time now, const txn::Transaction& transaction,
                   db::ObjectId object) override;
  void OnPhase(sim::Time now, Phase phase) override;
  void OnTxnAdmitted(sim::Time now,
                     const txn::Transaction& transaction) override;
  void OnUpdateArrival(sim::Time now, const db::Update& update) override;
  void OnUpdateEnqueued(sim::Time now, const db::Update& update) override;
  void OnDispatch(sim::Time now, const DispatchInfo& dispatch) override;
  void OnSegmentComplete(sim::Time now, const DispatchInfo& dispatch) override;
  void OnPreempt(sim::Time now, const txn::Transaction& transaction,
                 PreemptReason reason) override;
  void OnPolicyDecision(sim::Time now, core::PolicyKind policy,
                        SchedulerChoice choice, const char* reason) override;
  void OnFaultWindow(sim::Time now, const FaultWindowInfo& window) override;

 private:
  // Where an in-system update currently sits.
  enum class UpdateState {
    kInOsQueue,      // arrived; waiting in the kernel buffer
    kInUpdateQueue,  // received into the controller's update queue
    kInFlight,       // popped by the updater; on the CPU
  };

  struct TrackedUpdate {
    UpdateState state = UpdateState::kInOsQueue;
    db::ObjectId object;
  };

  struct ClassCounts {
    std::uint64_t arrived = 0;
    std::uint64_t installed = 0;
    std::uint64_t dropped = 0;
    // Live occupancy, by state.
    std::uint64_t in_os = 0;
    std::uint64_t in_uq = 0;
    std::uint64_t in_flight = 0;
  };

  // One ring entry; all strings have static storage duration.
  struct ContextEvent {
    double time = 0;
    const char* hook = "";
    std::uint64_t id = kNoContextId;  // txn or update id
    const char* note = "";
    int obj_cls = -1;  // -1 when no object is involved
    int obj_index = -1;
  };
  static constexpr std::uint64_t kNoContextId = ~std::uint64_t{0};

  static int Cls(db::ObjectClass cls) { return static_cast<int>(cls); }
  static std::int64_t PackObject(db::ObjectId id) {
    return (static_cast<std::int64_t>(Cls(id.cls)) << 32) | id.index;
  }

  void Record(const char* invariant, double now, std::string message);
  void Note(double now, const char* hook, std::uint64_t id,
            const char* note, db::ObjectId object);
  void Note(double now, const char* hook, std::uint64_t id = kNoContextId,
            const char* note = "");
  std::string RenderContext() const;

  // Common per-hook prologue: clock + after-run-end checks.
  void CheckClock(double now, const char* hook);
  // Is `object` a legal id for the audited database?
  void CheckObject(double now, const char* where, db::ObjectId object);
  // Legal DispatchInfo shape for its kind.
  void CheckDispatchShape(double now, const char* hook,
                          const DispatchInfo& dispatch);
  // Deep cross-checks, run at scheduler settle points.
  void CrossCheckAtSettlePoint(double now, const char* hook);
  // Recompute one object's staleness from first principles and compare
  // with the tracker's answer.
  void CheckStaleConformance(double now, const char* where,
                             db::ObjectId object);
  // Full-database conformance sweep (phase boundaries).
  void SweepStaleConformance(double now);
  // Moves a tracked update to terminal state and settles tallies.
  void RetireUpdate(
      std::unordered_map<base::UpdateId, TrackedUpdate>::iterator it,
      bool installed);
  std::uint64_t LiveUpdateTotal(UpdateState state) const;

  Options options_;
  const core::System* system_ = nullptr;

  // --- results ---------------------------------------------------------------
  std::vector<Violation> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t events_seen_ = 0;

  // --- context ring ----------------------------------------------------------
  std::vector<ContextEvent> ring_;
  std::size_t ring_next_ = 0;

  // --- clock -----------------------------------------------------------------
  double last_time_ = 0;
  bool run_ended_ = false;
  bool warmup_seen_ = false;

  // --- dispatch span ---------------------------------------------------------
  bool span_open_ = false;
  DispatchKind span_kind_ = DispatchKind::kTxnCompute;
  // Owners of the open span; the kNoContextId sentinel means "none".
  base::TxnId span_txn_{kNoContextId};
  base::UpdateId span_update_{kNoContextId};
  // The last closed span was a remote service: its heal (an update-
  // queue install with no demanding transaction) lands before the next
  // dispatch.
  bool after_remote_segment_ = false;

  // --- transactions ----------------------------------------------------------
  // Live txn id -> packed ObjectIds it read stale (for od-causality).
  std::unordered_map<base::TxnId, std::unordered_set<std::int64_t>>
      live_txns_;
  std::uint64_t txns_admitted_ = 0;
  std::uint64_t txns_terminal_ = 0;

  // --- updates ---------------------------------------------------------------
  std::unordered_map<base::UpdateId, TrackedUpdate> live_updates_;
  ClassCounts counts_[db::kNumObjectClasses];

  // --- staleness (arrival-based MA needs per-object install arrivals) --------
  // Written only when the audited system runs that criterion.
  std::unordered_map<std::int64_t, double> install_arrival_;

  // --- fault windows ---------------------------------------------------------
  std::unordered_map<std::string, bool> fault_open_;  // label -> open?
  int fault_depth_ = 0;
};

}  // namespace strip::check

#endif  // STRIP_CHECK_INVARIANT_AUDITOR_H_
