#include "db/staleness.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "base/check.h"

namespace strip::db {

const char* StalenessCriterionName(StalenessCriterion criterion) {
  switch (criterion) {
    case StalenessCriterion::kMaxAge:
      return "MA";
    case StalenessCriterion::kUnappliedUpdate:
      return "UU";
    case StalenessCriterion::kCombined:
      return "MA+UU";
    case StalenessCriterion::kMaxAgeArrival:
      return "MA-arrival";
  }
  return "?";
}

bool DetectableByTimestamp(StalenessCriterion criterion) {
  return criterion == StalenessCriterion::kMaxAge ||
         criterion == StalenessCriterion::kMaxAgeArrival;
}

StalenessTracker::StalenessTracker(sim::Simulator* simulator,
                                   Database* database,
                                   const UpdateQueue* queue,
                                   StalenessCriterion criterion,
                                   sim::Duration max_age)
    : simulator_(simulator),
      database_(database),
      queue_(queue),
      criterion_(criterion),
      max_age_(max_age) {
  STRIP_CHECK(simulator != nullptr);
  STRIP_CHECK(database != nullptr);
  STRIP_CHECK_MSG(database->writes() == 0,
                  "the tracker starts with an unwritten database");
  if (ReadsQueue()) {
    STRIP_CHECK_MSG(queue != nullptr,
                    "the unapplied-update criterion reads an update queue");
  }
  if (UsesMaxAge()) {
    STRIP_CHECK_MSG(max_age > 0, "max age must be positive under MA");
  }
  for (int c = 0; c < kNumObjectClasses; ++c) {
    stale_fraction_[c].StartAt(simulator_->now(), 0.0);
  }
  if (UsesMaxAge()) {
    // All objects start with generation time 0 and expire together at
    // alpha unless refreshed first (at once if alpha has passed).
    cohort_time_ = std::max(max_age_, simulator_->now());
    cohort_pending_ = true;
  }
}

bool StalenessTracker::QueueSaysStale(ObjectId id, const ObjectRecord& r,
                                      const Update* entering) const {
  if (entering != nullptr && entering->generation_time > r.generation_time) {
    return true;
  }
  const std::optional<Update> newest = queue_->PeekNewestFor(id);
  return newest.has_value() && newest->generation_time > r.generation_time;
}

bool StalenessTracker::ComputeStale(const ObjectRecord& r, sim::Time t,
                                    bool uu_stale) const {
  // >= so the flag flips exactly at freshness + max_age (the boundary
  // itself has measure zero). Evaluated at t = freshness + max_age,
  // t - freshness can round below max_age (for about 1% of freshness
  // values near 10^3 s, more at smaller ones), and the expiry then
  // leaves the flag fresh until the object's next Refresh.
  const bool ma_stale = t - r.freshness >= max_age_;
  switch (criterion_) {
    case StalenessCriterion::kMaxAge:
    case StalenessCriterion::kMaxAgeArrival:
      return ma_stale;
    case StalenessCriterion::kUnappliedUpdate:
      return uu_stale;
    case StalenessCriterion::kCombined:
      return ma_stale || uu_stale;
  }
  return false;
}

void StalenessTracker::Refresh(ObjectId id, ObjectRecord& r, sim::Time t,
                               const Update* entering) {
  if (ReadsQueue()) r.uu_stale = QueueSaysStale(id, r, entering);
  Reevaluate(r, id.cls, t);
}

void StalenessTracker::Reevaluate(ObjectRecord& r, ObjectClass cls,
                                  sim::Time t) {
  const bool now_stale = ComputeStale(r, t, r.uu_stale);
  if (now_stale == r.stale) return;
  r.stale = now_stale;
  sim::TimeWeighted& signal = stale_fraction_[static_cast<int>(cls)];
  signal.Set(t, signal.value() + (now_stale ? 1.0 : -1.0));
}

void StalenessTracker::ScheduleExpiry(ObjectId id, ObjectRecord& r,
                                      sim::Time previous_expiry) {
  r.initial = false;
  const sim::Time expiry_time = r.freshness + max_age_;
  if (expiry_time <= simulator_->now()) {
    // Already older than alpha: stale at once. Drop any live entry, as
    // it may lie beyond the expiry of the next apply.
    r.expiry_seq = 0;
    Refresh(id, r, simulator_->now());
    return;
  }
  // A live entry is never later than the expiry it was pushed for, so
  // when the expiry only moved later it can stay and re-arm on pop.
  if (r.expiry_seq != 0 && expiry_time >= previous_expiry) return;
  PushExpiry(id, r, expiry_time);
}

void StalenessTracker::PushExpiry(ObjectId id, ObjectRecord& r,
                                  sim::Time expiry_time) {
  // The record keeps the low 32 bits, and 0 there means "no entry".
  // Two entries of one object alias only 2^32 pushes apart, and even
  // then an aliased older entry that pops first either re-arms the
  // object at its true expiry or falls due at that same instant.
  if (static_cast<std::uint32_t>(next_expiry_seq_) == 0) ++next_expiry_seq_;
  const std::uint64_t seq = next_expiry_seq_++;
  r.expiry_seq = static_cast<std::uint32_t>(seq);
  expiries_.push_back({expiry_time, seq, id});
  std::push_heap(expiries_.begin(), expiries_.end(), std::greater<>());
}

void StalenessTracker::CatchUp() const {
  const_cast<StalenessTracker*>(this)->ApplyDueExpiries();
}

void StalenessTracker::ApplyDueExpiries() {
  const sim::Time now = simulator_->now();
  while (true) {
    const bool heap_due = !expiries_.empty() && expiries_.front().time <= now;
    // The cohort was armed at construction, so it precedes every heap
    // entry for the same instant.
    const bool cohort_due =
        cohort_pending_ && cohort_time_ <= now &&
        !(heap_due && expiries_.front().time < cohort_time_);
    if (cohort_due) {
      cohort_pending_ = false;
      for (int c = 0; c < kNumObjectClasses; ++c) {
        const auto cls = static_cast<ObjectClass>(c);
        for (ObjectRecord& r : database_->partition(cls)) {
          if (r.initial) Reevaluate(r, cls, cohort_time_);
        }
      }
    } else if (heap_due) {
      std::pop_heap(expiries_.begin(), expiries_.end(), std::greater<>());
      const Expiry due = expiries_.back();
      expiries_.pop_back();
      ObjectRecord& r = database_->record(due.id);
      if (r.expiry_seq != static_cast<std::uint32_t>(due.seq)) {
        continue;  // superseded
      }
      const sim::Time expiry_time = r.freshness + max_age_;
      if (due.time < expiry_time) {  // re-applied since it was pushed
        PushExpiry(due.id, r, expiry_time);
        continue;
      }
      r.expiry_seq = 0;
      Reevaluate(r, due.id.cls, due.time);
    } else {
      return;
    }
  }
}

void StalenessTracker::ResetObservation() {
  CatchUp();
  for (int c = 0; c < kNumObjectClasses; ++c) {
    const double current = stale_fraction_[c].value();
    stale_fraction_[c].StartAt(simulator_->now(), current);
  }
}

void StalenessTracker::OnApply(const Update& update) {
  CatchUp();
  ObjectRecord& r = database_->record(update.object);
  const sim::Time previous_expiry = r.freshness + max_age_;
  r.freshness = criterion_ == StalenessCriterion::kMaxAgeArrival
                    ? update.arrival_time
                    : r.generation_time;
  if (UsesMaxAge()) {
    ScheduleExpiry(update.object, r, previous_expiry);
  }
  Refresh(update.object, r, simulator_->now());
}

// Under MA the queue does not matter, but the re-evaluation at now
// still runs: it is what repairs a flag left fresh when an expiry at
// freshness + max_age rounded below alpha (see ComputeStale).
void StalenessTracker::OnEnqueued(const Update& update) {
  CatchUp();
  Refresh(update.object, database_->record(update.object), simulator_->now(),
          &update);
}

void StalenessTracker::OnRemovedFromQueue(const Update& update) {
  CatchUp();
  Refresh(update.object, database_->record(update.object),
          simulator_->now());
}

bool StalenessTracker::IsStale(ObjectId id) const {
  const ObjectRecord& r = std::as_const(*database_).record(id);
  return ComputeStale(r, simulator_->now(),
                      ReadsQueue() && QueueSaysStale(id, r, nullptr));
}

int StalenessTracker::StaleCount(ObjectClass cls) const {
  CatchUp();
  return static_cast<int>(stale_fraction_[static_cast<int>(cls)].value());
}

double StalenessTracker::FractionStaleNow(ObjectClass cls) const {
  CatchUp();
  const int size = database_->size(cls);
  if (size == 0) return 0.0;
  return stale_fraction_[static_cast<int>(cls)].value() /
         static_cast<double>(size);
}

double StalenessTracker::FractionStaleAverage(ObjectClass cls,
                                              sim::Time end) const {
  CatchUp();
  const int size = database_->size(cls);
  if (size == 0) return 0.0;
  return stale_fraction_[static_cast<int>(cls)].Average(end) /
         static_cast<double>(size);
}

}  // namespace strip::db
