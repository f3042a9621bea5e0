#include "check/invariant_auditor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

#include "base/check.h"
#include "base/str_format.h"
#include "db/staleness.h"

namespace strip::check {

namespace {

// Formats like printf into a std::string. Report() nests whole
// messages, so no fixed buffer is long enough.
template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  return base::StrFormat(fmt, args...);
}

bool TimesClose(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-9 * scale;
}

bool IsTxnKind(core::SystemObserver::DispatchKind kind) {
  switch (kind) {
    case core::SystemObserver::DispatchKind::kTxnCompute:
    case core::SystemObserver::DispatchKind::kTxnViewRead:
    case core::SystemObserver::DispatchKind::kTxnOdScan:
    case core::SystemObserver::DispatchKind::kTxnOdApply:
      return true;
    case core::SystemObserver::DispatchKind::kUpdaterTransfer:
    case core::SystemObserver::DispatchKind::kUpdaterInstallOs:
    case core::SystemObserver::DispatchKind::kUpdaterInstallUq:
    case core::SystemObserver::DispatchKind::kRemoteService:
      return false;
  }
  return false;
}

bool IsRemoteKind(core::SystemObserver::DispatchKind kind) {
  return kind == core::SystemObserver::DispatchKind::kRemoteService;
}

}  // namespace

InvariantAuditor::InvariantAuditor(const Options& options)
    : options_(options) {
  ring_.resize(options_.context_depth == 0 ? 1 : options_.context_depth);
}

// --- recording ---------------------------------------------------------------

void InvariantAuditor::Record(const char* invariant, double now,
                              std::string message) {
  ++total_violations_;
  if (options_.abort_on_violation) {
    std::fprintf(stderr, "invariant violation [%s] t=%.9g: %s\n%s",
                 invariant, now, message.c_str(), RenderContext().c_str());
    STRIP_CHECK_MSG(false, "invariant violation (abort_on_violation)");
  }
  if (violations_.size() >= options_.max_violations) return;
  Violation v;
  v.invariant = invariant;
  v.time = now;
  v.message = std::move(message);
  v.context = RenderContext();
  violations_.push_back(std::move(v));
}

void InvariantAuditor::Note(double now, const char* hook, std::uint64_t id,
                            const char* note, db::ObjectId object) {
  ContextEvent& e = ring_[ring_next_];
  ring_next_ = (ring_next_ + 1) % ring_.size();
  e.time = now;
  e.hook = hook;
  e.id = id;
  e.note = note;
  e.obj_cls = Cls(object.cls);
  e.obj_index = object.index;
  ++events_seen_;
}

void InvariantAuditor::Note(double now, const char* hook, std::uint64_t id,
                            const char* note) {
  Note(now, hook, id, note, db::ObjectId{});
  // The no-object overload leaves the object columns blank.
  std::size_t last = (ring_next_ + ring_.size() - 1) % ring_.size();
  ring_[last].obj_cls = -1;
  ring_[last].obj_index = -1;
}

std::string InvariantAuditor::RenderContext() const {
  std::string out = "  recent events (oldest first):\n";
  const std::size_t n = ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const ContextEvent& e = ring_[(ring_next_ + i) % n];
    if (e.hook[0] == '\0') continue;  // never filled
    out += Format("    t=%-12.9g %-18s", e.time, e.hook);
    if (e.id != kNoContextId) out += Format(" id=%llu",
        static_cast<unsigned long long>(e.id));
    if (e.obj_cls >= 0) {
      out += Format(" obj=%s:%d", e.obj_cls == 0 ? "low" : "high",
                    e.obj_index);
    }
    if (e.note[0] != '\0') {
      out += " ";
      out += e.note;
    }
    out += "\n";
  }
  return out;
}

std::string InvariantAuditor::Report() const {
  if (ok()) return "";
  std::string out = Format(
      "invariant audit: %llu violation(s) in %llu events\n",
      static_cast<unsigned long long>(total_violations_),
      static_cast<unsigned long long>(events_seen_));
  for (const Violation& v : violations_) {
    out += Format("[%s] t=%.9g %s\n", v.invariant.c_str(), v.time,
                  v.message.c_str());
    out += v.context;
  }
  if (total_violations_ > violations_.size()) {
    out += Format("(%llu further violation(s) past the cap not shown)\n",
                  static_cast<unsigned long long>(total_violations_ -
                                                  violations_.size()));
  }
  return out;
}

// --- shared prologues --------------------------------------------------------

void InvariantAuditor::CheckClock(double now, const char* hook) {
  if (!std::isfinite(now) || now < 0) {
    Record("event-clock", now,
           Format("%s fired at non-finite or negative time", hook));
    return;
  }
  if (now < last_time_) {
    Record("event-clock", now,
           Format("%s fired at t=%.9g, before the previous event at "
                  "t=%.9g",
                  hook, now, last_time_));
  }
  last_time_ = std::max(last_time_, now);
  if (run_ended_) {
    Record("event-clock", now,
           Format("%s fired after the run-end phase", hook));
  }
}

void InvariantAuditor::CheckObject(double now, const char* where,
                                   db::ObjectId object) {
  int limit = -1;
  if (system_ != nullptr) {
    limit = system_->database().size(object.cls);
  }
  if (object.index < 0 || (limit >= 0 && object.index >= limit)) {
    Record("update-lifecycle", now,
           Format("%s names object %s:%d outside the database", where,
                  db::ObjectClassName(object.cls), object.index));
  }
}

void InvariantAuditor::CheckDispatchShape(double now, const char* hook,
                                          const DispatchInfo& dispatch) {
  const bool txn_kind = IsTxnKind(dispatch.kind);
  if (txn_kind &&
      (dispatch.transaction == nullptr || dispatch.update != nullptr)) {
    Record("dispatch-span", now,
           Format("%s: %s dispatch must carry a transaction and no "
                  "update",
                  hook, core::DispatchKindName(dispatch.kind)));
  }
  if (IsRemoteKind(dispatch.kind) &&
      (dispatch.remote == nullptr || dispatch.transaction != nullptr ||
       dispatch.update != nullptr)) {
    Record("dispatch-span", now,
           Format("%s: %s dispatch must carry a remote read and nothing "
                  "else",
                  hook, core::DispatchKindName(dispatch.kind)));
  }
  if (!txn_kind && !IsRemoteKind(dispatch.kind) &&
      (dispatch.update == nullptr || dispatch.transaction != nullptr)) {
    Record("dispatch-span", now,
           Format("%s: %s dispatch must carry an update and no "
                  "transaction",
                  hook, core::DispatchKindName(dispatch.kind)));
  }
  if (!std::isfinite(dispatch.instructions) || dispatch.instructions < 0) {
    Record("dispatch-span", now,
           Format("%s: non-finite or negative instruction count %g", hook,
                  dispatch.instructions));
  }
}

std::uint64_t InvariantAuditor::LiveUpdateTotal(UpdateState state) const {
  std::uint64_t total = 0;
  for (const ClassCounts& c : counts_) {
    switch (state) {
      case UpdateState::kInOsQueue:
        total += c.in_os;
        break;
      case UpdateState::kInUpdateQueue:
        total += c.in_uq;
        break;
      case UpdateState::kInFlight:
        total += c.in_flight;
        break;
    }
  }
  return total;
}

void InvariantAuditor::CrossCheckAtSettlePoint(double now,
                                               const char* hook) {
  // The arithmetic identity first: it needs no System and catches
  // auditor-internal drift as well as duplicated/missing hooks.
  for (int c = 0; c < db::kNumObjectClasses; ++c) {
    const ClassCounts& k = counts_[c];
    if (k.arrived !=
        k.installed + k.dropped + k.in_os + k.in_uq + k.in_flight) {
      Record("update-conservation", now,
             Format("%s: class %s: arrived %llu != installed %llu + "
                    "dropped %llu + os %llu + uq %llu + cpu %llu",
                    hook, c == 0 ? "low" : "high",
                    static_cast<unsigned long long>(k.arrived),
                    static_cast<unsigned long long>(k.installed),
                    static_cast<unsigned long long>(k.dropped),
                    static_cast<unsigned long long>(k.in_os),
                    static_cast<unsigned long long>(k.in_uq),
                    static_cast<unsigned long long>(k.in_flight)));
    }
  }
  const std::uint64_t in_flight = LiveUpdateTotal(UpdateState::kInFlight);
  if (in_flight > 1) {
    Record("update-conservation", now,
           Format("%s: %llu updates on the one simulated CPU", hook,
                  static_cast<unsigned long long>(in_flight)));
  }
  if (system_ == nullptr) return;

  const std::uint64_t in_os = LiveUpdateTotal(UpdateState::kInOsQueue);
  const std::uint64_t os_actual = system_->os_queue().size();
  if (in_os != os_actual) {
    Record("queue-accounting", now,
           Format("%s: audited OS-queue depth %llu != actual %llu", hook,
                  static_cast<unsigned long long>(in_os),
                  static_cast<unsigned long long>(os_actual)));
  }
  if (os_actual > system_->os_queue().max_size()) {
    Record("queue-accounting", now,
           Format("%s: OS queue depth %llu exceeds bound %llu", hook,
                  static_cast<unsigned long long>(os_actual),
                  static_cast<unsigned long long>(
                      system_->os_queue().max_size())));
  }
  const db::UpdateQueue& uq = system_->update_queue();
  const std::uint64_t in_uq = LiveUpdateTotal(UpdateState::kInUpdateQueue);
  if (in_uq != uq.size()) {
    Record("queue-accounting", now,
           Format("%s: audited update-queue depth %llu != actual %llu",
                  hook, static_cast<unsigned long long>(in_uq),
                  static_cast<unsigned long long>(uq.size())));
  }
  if (uq.size() > uq.max_size()) {
    Record("queue-accounting", now,
           Format("%s: update-queue depth %llu exceeds bound %llu", hook,
                  static_cast<unsigned long long>(uq.size()),
                  static_cast<unsigned long long>(uq.max_size())));
  }
  for (int c = 0; c < db::kNumObjectClasses; ++c) {
    const auto cls = static_cast<db::ObjectClass>(c);
    if (counts_[c].in_uq != uq.SizeOfClass(cls)) {
      Record("queue-accounting", now,
             Format("%s: audited %s-class update-queue depth %llu != "
                    "actual %llu",
                    hook, c == 0 ? "low" : "high",
                    static_cast<unsigned long long>(counts_[c].in_uq),
                    static_cast<unsigned long long>(uq.SizeOfClass(cls))));
    }
  }
  if (live_txns_.size() != system_->live_txn_count()) {
    Record("txn-census", now,
           Format("%s: audited live-txn count %llu != actual %llu", hook,
                  static_cast<unsigned long long>(live_txns_.size()),
                  static_cast<unsigned long long>(
                      system_->live_txn_count())));
  }
}

// --- staleness conformance ---------------------------------------------------

void InvariantAuditor::CheckStaleConformance(double now, const char* where,
                                             db::ObjectId object) {
  if (system_ == nullptr) return;
  const db::StalenessTracker& tracker = system_->staleness();
  const db::Database& database = system_->database();
  if (object.index < 0 || object.index >= database.size(object.cls)) {
    return;  // CheckObject already recorded the out-of-range id
  }
  const double alpha = tracker.max_age();
  const db::StalenessCriterion criterion = tracker.criterion();

  // Max-Age family: age of the current value (generation-based, or the
  // arrival of the last install under the arrival variant; objects
  // start "fresh as of t=0"). ComputeStale uses >= at the boundary.
  double freshness = database.generation_time(object);
  if (criterion == db::StalenessCriterion::kMaxAgeArrival) {
    const auto it = install_arrival_.find(PackObject(object));
    freshness = it == install_arrival_.end() ? 0.0 : it->second;
  }
  const bool ma_stale = now - freshness >= alpha;

  // Unapplied-Update: a queued update newer than the database value.
  const std::optional<db::Update> newest =
      system_->update_queue().PeekNewestFor(object);
  const bool uu_stale =
      newest.has_value() &&
      newest->generation_time > database.generation_time(object);

  bool expected = false;
  switch (criterion) {
    case db::StalenessCriterion::kMaxAge:
    case db::StalenessCriterion::kMaxAgeArrival:
      expected = ma_stale;
      break;
    case db::StalenessCriterion::kUnappliedUpdate:
      expected = uu_stale;
      break;
    case db::StalenessCriterion::kCombined:
      expected = ma_stale || uu_stale;
      break;
  }
  const bool reported = tracker.IsStale(object);
  if (reported != expected) {
    Record("stale-conformance", now,
           Format("%s: object %s:%d reported %s but the %s criterion "
                  "says %s (value freshness %.9g, alpha %.9g)",
                  where, db::ObjectClassName(object.cls), object.index,
                  reported ? "stale" : "fresh",
                  db::StalenessCriterionName(criterion),
                  expected ? "stale" : "fresh", freshness, alpha));
  }
}

void InvariantAuditor::SweepStaleConformance(double now) {
  if (system_ == nullptr) return;
  const db::Database& database = system_->database();
  for (int c = 0; c < db::kNumObjectClasses; ++c) {
    const auto cls = static_cast<db::ObjectClass>(c);
    const int n = database.size(cls);
    for (int i = 0; i < n; ++i) {
      CheckStaleConformance(now, "phase-sweep", db::ObjectId{cls, i});
    }
  }
}

// --- update lifecycle --------------------------------------------------------

void InvariantAuditor::RetireUpdate(
    std::unordered_map<base::UpdateId, TrackedUpdate>::iterator it,
    bool installed) {
  ClassCounts& k = counts_[Cls(it->second.object.cls)];
  switch (it->second.state) {
    case UpdateState::kInOsQueue:
      --k.in_os;
      break;
    case UpdateState::kInUpdateQueue:
      --k.in_uq;
      break;
    case UpdateState::kInFlight:
      --k.in_flight;
      break;
  }
  if (installed) {
    ++k.installed;
  } else {
    ++k.dropped;
  }
  live_updates_.erase(it);
}

void InvariantAuditor::OnUpdateArrival(sim::Time now,
                                       const db::Update& update) {
  CheckClock(now, "update-arrival");
  Note(now, "update-arrival", update.id.value(), "", update.object);
  CheckObject(now, "update-arrival", update.object);
  if (!std::isfinite(update.generation_time) ||
      update.generation_time < 0 || update.generation_time > now) {
    Record("update-lifecycle", now,
           Format("update %llu arrived with generation time %.9g outside "
                  "[0, now]",
                  static_cast<unsigned long long>(update.id.value()),
                  update.generation_time));
  }
  const auto [it, inserted] = live_updates_.try_emplace(
      update.id,
      TrackedUpdate{UpdateState::kInOsQueue, update.object});
  if (!inserted) {
    Record("update-lifecycle", now,
           Format("update id %llu arrived twice",
                  static_cast<unsigned long long>(update.id.value())));
    return;
  }
  ClassCounts& k = counts_[Cls(update.object.cls)];
  ++k.arrived;
  ++k.in_os;
}

void InvariantAuditor::OnUpdateEnqueued(sim::Time now,
                                        const db::Update& update) {
  CheckClock(now, "update-enqueued");
  Note(now, "update-enqueued", update.id.value(), "", update.object);
  const auto it = live_updates_.find(update.id);
  if (it == live_updates_.end()) {
    Record("update-lifecycle", now,
           Format("unknown update %llu enqueued",
                  static_cast<unsigned long long>(update.id.value())));
    return;
  }
  if (it->second.state != UpdateState::kInFlight) {
    Record("update-lifecycle", now,
           Format("update %llu enqueued from state %d, not from the CPU",
                  static_cast<unsigned long long>(update.id.value()),
                  static_cast<int>(it->second.state)));
    return;
  }
  ClassCounts& k = counts_[Cls(it->second.object.cls)];
  --k.in_flight;
  ++k.in_uq;
  it->second.state = UpdateState::kInUpdateQueue;
}

void InvariantAuditor::OnUpdateInstalled(sim::Time now,
                                         const db::Update& update,
                                         const txn::Transaction* on_demand_by) {
  CheckClock(now, "update-installed");
  Note(now, "update-installed", update.id.value(),
       on_demand_by != nullptr ? "on-demand" : "", update.object);
  const auto it = live_updates_.find(update.id);
  if (it == live_updates_.end()) {
    Record("update-lifecycle", now,
           Format("unknown update %llu installed",
                  static_cast<unsigned long long>(update.id.value())));
  } else {
    // Ordinary installs happen on the CPU (popped from the OS queue or
    // the update queue); on-demand installs lift the update straight
    // out of the update queue inside the transaction's apply segment.
    const UpdateState state = it->second.state;
    const bool legal = state == UpdateState::kInFlight ||
                       state == UpdateState::kInUpdateQueue;
    if (!legal) {
      Record("update-lifecycle", now,
             Format("update %llu installed from the OS queue without "
                    "being received",
                    static_cast<unsigned long long>(update.id.value())));
    }
    // A remote-service segment may lift a queued update straight out of
    // the update queue (the "heal") right after its span closes.
    if (on_demand_by == nullptr && state == UpdateState::kInUpdateQueue &&
        !after_remote_segment_) {
      Record("update-lifecycle", now,
             Format("update %llu installed from the update queue without "
                    "a CPU segment or a demanding transaction",
                    static_cast<unsigned long long>(update.id.value())));
    }
    RetireUpdate(it, /*installed=*/true);
  }
  if (system_ != nullptr && system_->staleness().criterion() ==
                                db::StalenessCriterion::kMaxAgeArrival) {
    install_arrival_[PackObject(update.object)] = update.arrival_time;
  }
  if (on_demand_by != nullptr) {
    const auto txn_it = live_txns_.find(on_demand_by->id());
    if (txn_it == live_txns_.end()) {
      Record("od-causality", now,
             Format("on-demand install of update %llu names transaction "
                    "%llu, which is not live",
                    static_cast<unsigned long long>(update.id.value()),
                    static_cast<unsigned long long>(on_demand_by->id().value())));
    } else if (txn_it->second.count(PackObject(update.object)) == 0) {
      Record("od-causality", now,
             Format("on-demand install of update %llu for object %s:%d "
                    "has no preceding stale read by transaction %llu",
                    static_cast<unsigned long long>(update.id.value()),
                    db::ObjectClassName(update.object.cls),
                    update.object.index,
                    static_cast<unsigned long long>(on_demand_by->id().value())));
    }
  }
  CheckStaleConformance(now, "update-installed", update.object);
}

void InvariantAuditor::OnUpdateDropped(sim::Time now,
                                       const db::Update& update,
                                       DropReason reason) {
  CheckClock(now, "update-dropped");
  Note(now, "update-dropped", update.id.value(), core::DropReasonName(reason),
       update.object);
  const auto it = live_updates_.find(update.id);
  if (it == live_updates_.end()) {
    Record("update-lifecycle", now,
           Format("unknown update %llu dropped (%s)",
                  static_cast<unsigned long long>(update.id.value()),
                  core::DropReasonName(reason)));
    return;
  }
  const UpdateState state = it->second.state;
  bool legal = false;
  switch (reason) {
    case DropReason::kOsQueueFull:
      // Rejected at arrival: never left the (full) kernel buffer.
      legal = state == UpdateState::kInOsQueue;
      break;
    case DropReason::kQueueOverflow:
    case DropReason::kExpired:
      // Evicted or purged out of the update queue.
      legal = state == UpdateState::kInUpdateQueue;
      break;
    case DropReason::kUnworthy:
      // Popped for install (OS or update queue) and found older than
      // the database, or lifted by an on-demand apply.
      legal = state == UpdateState::kInFlight ||
              state == UpdateState::kInUpdateQueue;
      break;
    case DropReason::kSuperseded:
    case DropReason::kOverloadShed:
      // Either the queued victim or the incoming update on the CPU.
      legal = state == UpdateState::kInUpdateQueue ||
              state == UpdateState::kInFlight;
      break;
  }
  if (!legal) {
    Record("update-lifecycle", now,
           Format("update %llu dropped (%s) from an illegal state %d",
                  static_cast<unsigned long long>(update.id.value()),
                  core::DropReasonName(reason),
                  static_cast<int>(state)));
  }
  RetireUpdate(it, /*installed=*/false);
}

// --- dispatch spans ----------------------------------------------------------

void InvariantAuditor::OnDispatch(sim::Time now,
                                  const DispatchInfo& dispatch) {
  CheckClock(now, "dispatch");
  const std::uint64_t id =
      dispatch.transaction != nullptr ? dispatch.transaction->id().value()
      : dispatch.update != nullptr   ? dispatch.update->id.value()
                                     : kNoContextId;
  Note(now, "dispatch", id, core::DispatchKindName(dispatch.kind));
  CheckDispatchShape(now, "dispatch", dispatch);
  if (span_open_) {
    Record("dispatch-span", now,
           Format("dispatch (%s) while the %s segment from an earlier "
                  "dispatch still owns the CPU",
                  core::DispatchKindName(dispatch.kind),
                  core::DispatchKindName(span_kind_)));
  }
  span_open_ = true;
  span_kind_ = dispatch.kind;
  span_txn_ = base::TxnId(kNoContextId);
  span_update_ = base::UpdateId(kNoContextId);
  after_remote_segment_ = false;
  if (IsTxnKind(dispatch.kind) && dispatch.transaction != nullptr) {
    span_txn_ = dispatch.transaction->id();
    if (live_txns_.count(span_txn_) == 0) {
      Record("txn-lifecycle", now,
             Format("dispatch of transaction %llu, which is not live",
                    static_cast<unsigned long long>(span_txn_.value())));
    }
  }
  if (!IsTxnKind(dispatch.kind) && !IsRemoteKind(dispatch.kind) &&
      dispatch.update != nullptr) {
    span_update_ = dispatch.update->id;
    const auto it = live_updates_.find(span_update_);
    if (it == live_updates_.end()) {
      Record("update-lifecycle", now,
             Format("dispatch of unknown update %llu",
                    static_cast<unsigned long long>(span_update_.value())));
    } else {
      // Transfers and direct installs pop the OS queue; update-queue
      // installs pop the update queue. Either way the update moves to
      // the CPU for the duration of the segment.
      const UpdateState expected =
          dispatch.kind == DispatchKind::kUpdaterInstallUq
              ? UpdateState::kInUpdateQueue
              : UpdateState::kInOsQueue;
      if (it->second.state != expected) {
        Record("update-lifecycle", now,
               Format("update %llu dispatched (%s) from state %d",
                      static_cast<unsigned long long>(span_update_.value()),
                      core::DispatchKindName(dispatch.kind),
                      static_cast<int>(it->second.state)));
      }
      ClassCounts& k = counts_[Cls(it->second.object.cls)];
      switch (it->second.state) {
        case UpdateState::kInOsQueue:
          --k.in_os;
          break;
        case UpdateState::kInUpdateQueue:
          --k.in_uq;
          break;
        case UpdateState::kInFlight:
          --k.in_flight;
          break;
      }
      ++k.in_flight;
      it->second.state = UpdateState::kInFlight;
    }
  }
  CrossCheckAtSettlePoint(now, "dispatch");
}

void InvariantAuditor::OnSegmentComplete(sim::Time now,
                                         const DispatchInfo& dispatch) {
  CheckClock(now, "segment-complete");
  const std::uint64_t id =
      dispatch.transaction != nullptr ? dispatch.transaction->id().value()
      : dispatch.update != nullptr   ? dispatch.update->id.value()
                                     : kNoContextId;
  Note(now, "segment-complete", id, core::DispatchKindName(dispatch.kind));
  CheckDispatchShape(now, "segment-complete", dispatch);
  if (!span_open_) {
    Record("dispatch-span", now,
           Format("segment-complete (%s) with no open dispatch",
                  core::DispatchKindName(dispatch.kind)));
  } else {
    if (dispatch.kind != span_kind_) {
      Record("dispatch-span", now,
             Format("segment-complete kind %s does not match the open "
                    "dispatch (%s)",
                    core::DispatchKindName(dispatch.kind),
                    core::DispatchKindName(span_kind_)));
    }
    const std::uint64_t owner =
        IsTxnKind(span_kind_) ? span_txn_.value() : span_update_.value();
    if (id != owner) {
      Record("dispatch-span", now,
             Format("segment-complete owner %llu does not match the open "
                    "dispatch owner %llu",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(owner)));
    }
  }
  span_open_ = false;
  after_remote_segment_ = IsRemoteKind(dispatch.kind);
  CrossCheckAtSettlePoint(now, "segment-complete");
}

void InvariantAuditor::OnPreempt(sim::Time now,
                                 const txn::Transaction& transaction,
                                 PreemptReason reason) {
  CheckClock(now, "preempt");
  Note(now, "preempt", transaction.id().value(), core::PreemptReasonName(reason));
  if (!span_open_) {
    Record("dispatch-span", now,
           Format("transaction %llu preempted with no open dispatch",
                  static_cast<unsigned long long>(transaction.id().value())));
  } else {
    if (!IsTxnKind(span_kind_)) {
      Record("dispatch-span", now,
             Format("preempt (%s) while the CPU runs update work (%s)",
                    core::PreemptReasonName(reason),
                    core::DispatchKindName(span_kind_)));
    } else if (span_txn_ != transaction.id()) {
      Record("dispatch-span", now,
             Format("preempt names transaction %llu but the open "
                    "dispatch belongs to %llu",
                    static_cast<unsigned long long>(transaction.id().value()),
                    static_cast<unsigned long long>(span_txn_.value())));
    }
  }
  span_open_ = false;
  if (live_txns_.count(transaction.id()) == 0) {
    Record("txn-lifecycle", now,
           Format("preempt of transaction %llu, which is not live",
                  static_cast<unsigned long long>(transaction.id().value())));
  }
}

// --- transactions ------------------------------------------------------------

void InvariantAuditor::OnTxnAdmitted(sim::Time now,
                                     const txn::Transaction& transaction) {
  CheckClock(now, "txn-admitted");
  Note(now, "txn-admitted", transaction.id().value(), "");
  const auto [it, inserted] =
      live_txns_.try_emplace(transaction.id());
  (void)it;
  if (!inserted) {
    Record("txn-lifecycle", now,
           Format("transaction %llu admitted twice",
                  static_cast<unsigned long long>(transaction.id().value())));
    return;
  }
  ++txns_admitted_;
}

void InvariantAuditor::OnStaleRead(sim::Time now,
                                   const txn::Transaction& transaction,
                                   db::ObjectId object) {
  CheckClock(now, "stale-read");
  Note(now, "stale-read", transaction.id().value(), "", object);
  CheckObject(now, "stale-read", object);
  const auto it = live_txns_.find(transaction.id());
  if (it == live_txns_.end()) {
    Record("txn-lifecycle", now,
           Format("stale read by transaction %llu, which is not live",
                  static_cast<unsigned long long>(transaction.id().value())));
  } else {
    it->second.insert(PackObject(object));
  }
  if (system_ != nullptr && !system_->staleness().IsStale(object)) {
    Record("stale-conformance", now,
           Format("stale read reported for object %s:%d, which the "
                  "tracker holds fresh",
                  db::ObjectClassName(object.cls), object.index));
  }
  CheckStaleConformance(now, "stale-read", object);
}

void InvariantAuditor::OnTransactionTerminal(
    sim::Time now, const txn::Transaction& transaction) {
  CheckClock(now, "txn-terminal");
  Note(now, "txn-terminal", transaction.id().value(),
       txn::TxnOutcomeName(transaction.outcome()));
  if (transaction.outcome() == txn::TxnOutcome::kPending) {
    Record("txn-lifecycle", now,
           Format("transaction %llu reached terminal with no outcome",
                  static_cast<unsigned long long>(transaction.id().value())));
  }
  if (span_open_ && IsTxnKind(span_kind_) &&
      span_txn_ == transaction.id()) {
    Record("dispatch-span", now,
           Format("transaction %llu terminal while its dispatch span is "
                  "still open",
                  static_cast<unsigned long long>(transaction.id().value())));
  }
  const auto it = live_txns_.find(transaction.id());
  if (it == live_txns_.end()) {
    // Admission control rejects at the door: terminal without admission
    // is legal only for an overload drop.
    if (transaction.outcome() != txn::TxnOutcome::kOverloadDrop) {
      Record("txn-lifecycle", now,
             Format("transaction %llu terminal (%s) without admission",
                    static_cast<unsigned long long>(transaction.id().value()),
                    txn::TxnOutcomeName(transaction.outcome())));
    }
  } else {
    live_txns_.erase(it);
  }
  ++txns_terminal_;
}

// --- scheduler / phases / faults ---------------------------------------------

void InvariantAuditor::OnPolicyDecision(sim::Time now,
                                        core::PolicyKind policy,
                                        SchedulerChoice choice,
                                        const char* reason) {
  (void)policy;
  CheckClock(now, "policy-decision");
  Note(now, "policy-decision", kNoContextId,
       core::SchedulerChoiceName(choice));
  if (reason == nullptr || reason[0] == '\0') {
    Record("dispatch-span", now,
           "policy decision carries no reason token");
  }
  CrossCheckAtSettlePoint(now, "policy-decision");
}

void InvariantAuditor::OnPhase(sim::Time now, Phase phase) {
  CheckClock(now, "phase");
  Note(now, "phase", kNoContextId, core::PhaseName(phase));
  if (phase == Phase::kWarmupEnd) {
    if (warmup_seen_) {
      Record("event-clock", now, "warm-up ended twice");
    }
    warmup_seen_ = true;
  }
  CrossCheckAtSettlePoint(now, "phase");
  SweepStaleConformance(now);
  // A window straddling the end of the run legitimately never sees its
  // end boundary, so run-end leaves fault_open_ unchecked by design.
  if (phase == Phase::kRunEnd) run_ended_ = true;
}

void InvariantAuditor::OnFaultWindow(sim::Time now,
                                     const FaultWindowInfo& window) {
  CheckClock(now, "fault-window");
  const char* label = window.label != nullptr ? window.label : "";
  Note(now, "fault-window", kNoContextId,
       window.begin ? "begin" : "end");
  if (window.kind == nullptr || label[0] == '\0') {
    Record("fault-bracketing", now,
           "fault window with no kind or label");
    return;
  }
  if (!(window.start < window.end)) {
    Record("fault-bracketing", now,
           Format("fault window %s has no extent [%.9g, %.9g)", label,
                  window.start, window.end));
  }
  bool& open = fault_open_[label];
  if (window.begin) {
    if (open) {
      Record("fault-bracketing", now,
             Format("fault window %s began twice", label));
    }
    open = true;
    ++fault_depth_;
    if (!TimesClose(now, window.start)) {
      Record("fault-bracketing", now,
             Format("fault window %s began at t=%.9g, not at its "
                    "scheduled start %.9g",
                    label, now, window.start));
    }
  } else {
    if (!open) {
      Record("fault-bracketing", now,
             Format("fault window %s ended without beginning", label));
    } else {
      --fault_depth_;
    }
    open = false;
    if (!TimesClose(now, window.end)) {
      Record("fault-bracketing", now,
             Format("fault window %s ended at t=%.9g, not at its "
                    "scheduled end %.9g",
                    label, now, window.end));
    }
  }
  if (fault_depth_ < 0) {
    Record("fault-bracketing", now, "fault-window depth went negative");
    fault_depth_ = 0;
  }
}

}  // namespace strip::check
