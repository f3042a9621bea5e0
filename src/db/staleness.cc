#include "db/staleness.h"

#include <algorithm>
#include <functional>
#include <optional>

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
                                   const UpdateQueue* queue,
                                   StalenessCriterion criterion,
                                   sim::Duration max_age, int n_low,
                                   int n_high)
    : simulator_(simulator),
      queue_(queue),
      criterion_(criterion),
      max_age_(max_age),
      low_(n_low),
      high_(n_high) {
  STRIP_CHECK(simulator != nullptr);
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

StalenessTracker::ObjectState& StalenessTracker::state(ObjectId id) {
  auto& partition = id.cls == ObjectClass::kLowImportance ? low_ : high_;
  STRIP_CHECK_MSG(
      id.index >= 0 && id.index < static_cast<int>(partition.size()),
      "object index out of range");
  return partition[id.index];
}

const StalenessTracker::ObjectState& StalenessTracker::state(
    ObjectId id) const {
  return const_cast<StalenessTracker*>(this)->state(id);
}

bool StalenessTracker::QueueSaysStale(ObjectId id, const ObjectState& s,
                                      const Update* entering) const {
  if (entering != nullptr && entering->generation_time > s.db_generation) {
    return true;
  }
  const std::optional<Update> newest = queue_->PeekNewestFor(id);
  return newest.has_value() && newest->generation_time > s.db_generation;
}

bool StalenessTracker::ComputeStale(const ObjectState& s, sim::Time t,
                                    bool uu_stale) const {
  // >= so the flag flips exactly at freshness + max_age (the boundary
  // itself has measure zero). Evaluated at t = freshness + max_age,
  // t - freshness can round below max_age (for about 1% of freshness
  // values near 10^3 s, more at smaller ones), and the expiry then
  // leaves the flag fresh until the object's next Refresh.
  const bool ma_stale = t - s.freshness >= max_age_;
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

void StalenessTracker::Refresh(ObjectId id, sim::Time t,
                               const Update* entering) {
  if (ReadsQueue()) {
    ObjectState& s = state(id);
    s.uu_stale = QueueSaysStale(id, s, entering);
  }
  Reevaluate(id, t);
}

void StalenessTracker::Reevaluate(ObjectId id, sim::Time t) {
  ObjectState& s = state(id);
  const bool now_stale = ComputeStale(s, t, s.uu_stale);
  if (now_stale == s.stale) return;
  s.stale = now_stale;
  sim::TimeWeighted& signal = stale_fraction_[static_cast<int>(id.cls)];
  signal.Set(t, signal.value() + (now_stale ? 1.0 : -1.0));
}

void StalenessTracker::ScheduleExpiry(ObjectId id,
                                      sim::Time previous_expiry) {
  ObjectState& s = state(id);
  s.initial = false;
  const sim::Time expiry_time = s.freshness + max_age_;
  if (expiry_time <= simulator_->now()) {
    // Already older than alpha: stale at once. Drop any live entry, as
    // it may lie beyond the expiry of the next apply.
    s.expiry_seq = 0;
    Refresh(id, simulator_->now());
    return;
  }
  // A live entry is never later than the expiry it was pushed for, so
  // when the expiry only moved later it can stay and re-arm on pop.
  if (s.expiry_seq != 0 && expiry_time >= previous_expiry) return;
  PushExpiry(id, expiry_time);
}

void StalenessTracker::PushExpiry(ObjectId id, sim::Time expiry_time) {
  ObjectState& s = state(id);
  s.expiry_seq = next_expiry_seq_++;
  expiries_.push_back({expiry_time, s.expiry_seq, id});
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
        const auto& objects =
            cls == ObjectClass::kLowImportance ? low_ : high_;
        for (int i = 0; i < static_cast<int>(objects.size()); ++i) {
          if (objects[i].initial) Reevaluate({cls, i}, cohort_time_);
        }
      }
    } else if (heap_due) {
      std::pop_heap(expiries_.begin(), expiries_.end(), std::greater<>());
      const Expiry due = expiries_.back();
      expiries_.pop_back();
      ObjectState& s = state(due.id);
      if (s.expiry_seq != due.seq) continue;  // superseded
      const sim::Time expiry_time = s.freshness + max_age_;
      if (due.time < expiry_time) {  // re-applied since it was pushed
        PushExpiry(due.id, expiry_time);
        continue;
      }
      s.expiry_seq = 0;
      Reevaluate(due.id, due.time);
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

void StalenessTracker::OnApply(ObjectId id, sim::Time generation_time,
                               sim::Time arrival_time) {
  CatchUp();
  ObjectState& s = state(id);
  STRIP_CHECK_MSG(generation_time >= s.db_generation,
                  "database generation moved backwards");
  s.db_generation = generation_time;
  const sim::Time previous_expiry = s.freshness + max_age_;
  s.freshness = criterion_ == StalenessCriterion::kMaxAgeArrival
                    ? arrival_time
                    : generation_time;
  if (UsesMaxAge()) {
    ScheduleExpiry(id, previous_expiry);
  }
  Refresh(id, simulator_->now());
}

// Under MA the queue does not matter, but the re-evaluation at now
// still runs: it is what repairs a flag left fresh when an expiry at
// freshness + max_age rounded below alpha (see ComputeStale).
void StalenessTracker::OnEnqueued(const Update& update) {
  CatchUp();
  Refresh(update.object, simulator_->now(), &update);
}

void StalenessTracker::OnRemovedFromQueue(const Update& update) {
  CatchUp();
  Refresh(update.object, simulator_->now());
}

bool StalenessTracker::IsStale(ObjectId id) const {
  const ObjectState& s = state(id);
  return ComputeStale(s, simulator_->now(),
                      ReadsQueue() && QueueSaysStale(id, s, nullptr));
}

int StalenessTracker::StaleCount(ObjectClass cls) const {
  CatchUp();
  return static_cast<int>(stale_fraction_[static_cast<int>(cls)].value());
}

double StalenessTracker::FractionStaleNow(ObjectClass cls) const {
  CatchUp();
  const auto& partition = cls == ObjectClass::kLowImportance ? low_ : high_;
  if (partition.empty()) return 0.0;
  return stale_fraction_[static_cast<int>(cls)].value() /
         static_cast<double>(partition.size());
}

double StalenessTracker::FractionStaleAverage(ObjectClass cls,
                                              sim::Time end) const {
  CatchUp();
  const auto& partition = cls == ObjectClass::kLowImportance ? low_ : high_;
  if (partition.empty()) return 0.0;
  return stale_fraction_[static_cast<int>(cls)].Average(end) /
         static_cast<double>(partition.size());
}

}  // namespace strip::db
