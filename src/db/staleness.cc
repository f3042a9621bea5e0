#include "db/staleness.h"

#include <algorithm>
#include <functional>

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
                                   StalenessCriterion criterion,
                                   sim::Duration max_age, int n_low,
                                   int n_high)
    : simulator_(simulator),
      criterion_(criterion),
      max_age_(max_age),
      low_(n_low),
      high_(n_high) {
  STRIP_CHECK(simulator != nullptr);
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

bool StalenessTracker::ComputeStale(const ObjectState& s,
                                    sim::Time t) const {
  // >= so the flag flips exactly at freshness + max_age (the boundary
  // itself has measure zero).
  const bool ma_stale = t - s.freshness >= max_age_;
  const bool uu_stale =
      !s.queued.empty() && s.queued.back().first > s.db_generation;
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

void StalenessTracker::Refresh(ObjectId id, sim::Time t) {
  ObjectState& s = state(id);
  const bool now_stale = ComputeStale(s, t);
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
          if (objects[i].initial) Refresh({cls, i}, cohort_time_);
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
      Refresh(due.id, due.time);
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

void StalenessTracker::OnEnqueued(const Update& update) {
  CatchUp();
  ObjectState& s = state(update.object);
  const std::pair<sim::Time, std::uint64_t> key{update.generation_time,
                                                update.id.value()};
  s.queued.insert(std::upper_bound(s.queued.begin(), s.queued.end(), key),
                  key);
  Refresh(update.object, simulator_->now());
}

void StalenessTracker::OnRemovedFromQueue(const Update& update) {
  CatchUp();
  ObjectState& s = state(update.object);
  const std::pair<sim::Time, std::uint64_t> key{update.generation_time,
                                                update.id.value()};
  const auto it = std::lower_bound(s.queued.begin(), s.queued.end(), key);
  STRIP_CHECK_MSG(it != s.queued.end() && *it == key,
                  "removed update was not tracked as queued");
  s.queued.erase(it);
  Refresh(update.object, simulator_->now());
}

bool StalenessTracker::IsStale(ObjectId id) const {
  return ComputeStale(state(id), simulator_->now());
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
