#include "db/staleness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/update_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace strip::db {
namespace {

constexpr ObjectId kObj{ObjectClass::kLowImportance, 0};
constexpr ObjectId kHighObj{ObjectClass::kHighImportance, 0};

Update MakeUpdate(std::uint64_t id, sim::Time generation,
                  ObjectId object = kObj) {
  Update u;
  u.id = base::UpdateId(id);
  u.object = object;
  u.generation_time = generation;
  u.arrival_time = generation;
  return u;
}

// Queue changes as core::System makes them: the queue first, then the
// tracker that reads it.
void Enqueue(UpdateQueue* queue, StalenessTracker* tracker, const Update& u) {
  ASSERT_TRUE(queue->Push(u).empty());
  tracker->OnEnqueued(u);
}

void Dequeue(UpdateQueue* queue, StalenessTracker* tracker, const Update& u) {
  ASSERT_TRUE(queue->Remove(u));
  tracker->OnRemovedFromQueue(u);
}

// An install as core::System makes it: the database first, then the
// tracker, which reads the generation the database wrote.
void Install(Database* database, StalenessTracker* tracker, ObjectId id,
             sim::Time generation, sim::Time arrival) {
  Update u = MakeUpdate(0, generation, id);
  u.arrival_time = arrival;
  ASSERT_TRUE(database->Apply(u));
  tracker->OnApply(u);
}

void Install(Database* database, StalenessTracker* tracker, ObjectId id,
             sim::Time generation) {
  Install(database, tracker, id, generation, generation);
}

TEST(StalenessNamesTest, CriterionNames) {
  EXPECT_STREQ(StalenessCriterionName(StalenessCriterion::kMaxAge), "MA");
  EXPECT_STREQ(StalenessCriterionName(StalenessCriterion::kUnappliedUpdate),
               "UU");
  EXPECT_STREQ(StalenessCriterionName(StalenessCriterion::kCombined),
               "MA+UU");
}

// ---------- Maximum Age -----------------------------------------------------

TEST(MaxAgeTest, FreshUntilAlpha) {
  sim::Simulator sim;
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAge, 7.0);
  EXPECT_FALSE(tracker.IsStale(kObj));
  sim.RunUntil(6.9);
  EXPECT_FALSE(tracker.IsStale(kObj));
}

TEST(MaxAgeTest, ObjectExpiresAtAlpha) {
  sim::Simulator sim;
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAge, 7.0);
  sim.RunUntil(7.5);
  EXPECT_TRUE(tracker.IsStale(kObj));
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 2);
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kHighImportance), 2);
}

TEST(MaxAgeTest, ApplyRefreshesAndReschedulesExpiry) {
  sim::Simulator sim;
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAge, 7.0);
  sim.RunUntil(5.0);
  // A fresh value generated right now.
  Install(&database, &tracker, kObj, 5.0);
  sim.RunUntil(11.0);  // 5 + 7 = 12 > 11: still fresh
  EXPECT_FALSE(tracker.IsStale(kObj));
  sim.RunUntil(12.5);
  EXPECT_TRUE(tracker.IsStale(kObj));
}

TEST(MaxAgeTest, ApplyOfAgedValueCanLeaveObjectStale) {
  sim::Simulator sim;
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAge, 7.0);
  sim.RunUntil(20.0);
  // A value already 10 seconds old.
  Install(&database, &tracker, kObj, 10.0);
  EXPECT_TRUE(tracker.IsStale(kObj));
  Install(&database, &tracker, kObj, 19.0);
  EXPECT_FALSE(tracker.IsStale(kObj));
}

TEST(MaxAgeTest, StaleCountTracksPerPartition) {
  sim::Simulator sim;
  Database database(3, 1);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAge, 7.0);
  sim.RunUntil(8.0);  // everything stale
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 3);
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kHighImportance), 1);
  Install(&database, &tracker, {ObjectClass::kLowImportance, 1}, 8.0);
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 2);
  EXPECT_DOUBLE_EQ(tracker.FractionStaleNow(ObjectClass::kLowImportance),
                   2.0 / 3.0);
}

TEST(MaxAgeTest, FractionStaleAverageIsExactIntegral) {
  sim::Simulator sim;
  Database database(1, 1);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAge, 5.0);
  // The single low object: fresh [0,5), stale [5,8), fresh [8,13),
  // stale [13,20]. Installed at t=8 with generation 8.
  sim.RunUntil(8.0);
  Install(&database, &tracker, {ObjectClass::kLowImportance, 0}, 8.0);
  sim.RunUntil(20.0);
  // Stale time: (8-5) + (20-13) = 10 of 20.
  EXPECT_NEAR(tracker.FractionStaleAverage(ObjectClass::kLowImportance, 20.0),
              0.5, 1e-12);
}

TEST(MaxAgeTest, ResetObservationDropsHistory) {
  sim::Simulator sim;
  Database database(1, 1);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAge, 5.0);
  sim.RunUntil(10.0);  // stale since t=5
  tracker.ResetObservation();
  sim.RunUntil(20.0);  // stale for the whole observed window
  EXPECT_NEAR(tracker.FractionStaleAverage(ObjectClass::kLowImportance, 20.0),
              1.0, 1e-12);
}

// ---------- Unapplied Update ------------------------------------------------

TEST(UnappliedUpdateTest, FreshWithEmptyQueue) {
  sim::Simulator sim;
  UpdateQueue queue(16);
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, &queue,
                           StalenessCriterion::kUnappliedUpdate, 0.0);
  sim.RunUntil(100.0);  // no max-age under UU: stays fresh forever
  EXPECT_FALSE(tracker.IsStale(kObj));
}

TEST(UnappliedUpdateTest, NewerQueuedUpdateMakesStale) {
  sim::Simulator sim;
  UpdateQueue queue(16);
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, &queue,
                           StalenessCriterion::kUnappliedUpdate, 0.0);
  sim.RunUntil(1.0);
  Enqueue(&queue, &tracker, MakeUpdate(1, 0.5));
  EXPECT_TRUE(tracker.IsStale(kObj));
  EXPECT_FALSE(tracker.IsStale({ObjectClass::kLowImportance, 1}));
}

TEST(UnappliedUpdateTest, ApplyingTheUpdateMakesFresh) {
  sim::Simulator sim;
  UpdateQueue queue(16);
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, &queue,
                           StalenessCriterion::kUnappliedUpdate, 0.0);
  const Update u = MakeUpdate(1, 0.5);
  Enqueue(&queue, &tracker, u);
  Dequeue(&queue, &tracker, u);
  Install(&database, &tracker, kObj, u.generation_time);
  EXPECT_FALSE(tracker.IsStale(kObj));
}

TEST(UnappliedUpdateTest, OlderQueuedUpdateDoesNotMakeStale) {
  sim::Simulator sim;
  UpdateQueue queue(16);
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, &queue,
                           StalenessCriterion::kUnappliedUpdate, 0.0);
  Install(&database, &tracker, kObj, 5.0);
  Enqueue(&queue, &tracker, MakeUpdate(1, 3.0));  // older than the DB value
  EXPECT_FALSE(tracker.IsStale(kObj));
}

TEST(UnappliedUpdateTest, LifoApplyLeavesOnlyWorthlessQueuedUpdates) {
  sim::Simulator sim;
  UpdateQueue queue(16);
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, &queue,
                           StalenessCriterion::kUnappliedUpdate, 0.0);
  const Update older = MakeUpdate(1, 1.0);
  const Update newer = MakeUpdate(2, 2.0);
  Enqueue(&queue, &tracker, older);
  Enqueue(&queue, &tracker, newer);
  EXPECT_TRUE(tracker.IsStale(kObj));
  // LIFO: the newest is applied first; the older queued update cannot
  // make the data fresher, so the object is semantically fresh.
  Dequeue(&queue, &tracker, newer);
  Install(&database, &tracker, kObj, newer.generation_time);
  EXPECT_FALSE(tracker.IsStale(kObj));
  // Discarding the worthless leftover changes nothing.
  Dequeue(&queue, &tracker, older);
  EXPECT_FALSE(tracker.IsStale(kObj));
}

TEST(UnappliedUpdateTest, DiscardingOnlyPendingUpdateMakesFresh) {
  sim::Simulator sim;
  UpdateQueue queue(16);
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, &queue,
                           StalenessCriterion::kUnappliedUpdate, 0.0);
  const Update u = MakeUpdate(1, 1.0);
  Enqueue(&queue, &tracker, u);
  EXPECT_TRUE(tracker.IsStale(kObj));
  Dequeue(&queue, &tracker, u);  // dropped, not applied
  EXPECT_FALSE(tracker.IsStale(kObj));
}

TEST(UnappliedUpdateTest, FractionAverageIntegratesQueueResidence) {
  sim::Simulator sim;
  UpdateQueue queue(16);
  Database database(1, 1);
  StalenessTracker tracker(&sim, &database, &queue,
                           StalenessCriterion::kUnappliedUpdate, 0.0);
  const Update u = MakeUpdate(1, 1.0);
  sim.RunUntil(2.0);
  Enqueue(&queue, &tracker, u);
  sim.RunUntil(6.0);
  Dequeue(&queue, &tracker, u);
  Install(&database, &tracker, {ObjectClass::kLowImportance, 0}, 1.0);
  sim.RunUntil(10.0);
  // Stale during [2,6] of [0,10].
  EXPECT_NEAR(tracker.FractionStaleAverage(ObjectClass::kLowImportance, 10.0),
              0.4, 1e-12);
}

// ---------- Maximum Age on arrival time --------------------------------------

TEST(MaxAgeArrivalTest, NamesAndDetectability) {
  EXPECT_STREQ(StalenessCriterionName(StalenessCriterion::kMaxAgeArrival),
               "MA-arrival");
  EXPECT_TRUE(DetectableByTimestamp(StalenessCriterion::kMaxAge));
  EXPECT_TRUE(DetectableByTimestamp(StalenessCriterion::kMaxAgeArrival));
  EXPECT_FALSE(
      DetectableByTimestamp(StalenessCriterion::kUnappliedUpdate));
  EXPECT_FALSE(DetectableByTimestamp(StalenessCriterion::kCombined));
}

TEST(MaxAgeArrivalTest, AgesOnArrivalNotGeneration) {
  sim::Simulator sim;
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAgeArrival, 7.0);
  sim.RunUntil(10.0);
  // Value generated at 2 but arrived at 10: under generation-MA it
  // would already be stale (age 8 > 7); under arrival-MA it is fresh
  // until 17.
  Install(&database, &tracker, kObj, /*generation=*/2.0, /*arrival=*/10.0);
  EXPECT_FALSE(tracker.IsStale(kObj));
  sim.RunUntil(16.9);
  EXPECT_FALSE(tracker.IsStale(kObj));
  sim.RunUntil(17.5);
  EXPECT_TRUE(tracker.IsStale(kObj));
}

TEST(MaxAgeArrivalTest, InitialObjectsExpireAtAlpha) {
  sim::Simulator sim;
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAgeArrival, 5.0);
  sim.RunUntil(5.5);
  EXPECT_TRUE(tracker.IsStale(kObj));
}

TEST(MaxAgeArrivalTest, ArrivalAtGenerationAgesLikeGenerationMa) {
  sim::Simulator sim;
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAgeArrival, 7.0);
  sim.RunUntil(10.0);
  // Arrived the moment it was generated: age 8 > 7.
  Install(&database, &tracker, kObj, 2.0);
  EXPECT_TRUE(tracker.IsStale(kObj));
}

// ---------- the shared object record ----------------------------------------

TEST(ObjectRecordTest, MaxAgeRunsOnTheEffectiveGenerationOfPartialUpdates) {
  sim::Simulator sim;
  Database database(2, 2, /*n_attributes=*/2);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAge, 7.0);
  sim.RunUntil(5.0);
  Update partial = MakeUpdate(1, 5.0);
  partial.attribute = 0;
  ASSERT_TRUE(database.Apply(partial));
  tracker.OnApply(partial);
  // Attribute 1 is still at generation 0, so the object is too.
  sim.RunUntil(7.0);
  EXPECT_TRUE(tracker.IsStale(kObj));
  partial = MakeUpdate(2, 6.0);
  partial.attribute = 1;
  ASSERT_TRUE(database.Apply(partial));
  tracker.OnApply(partial);
  // Now as fresh as attribute 0: generation 5, stale from 12.
  EXPECT_FALSE(tracker.IsStale(kObj));
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 1);
  sim.RunUntil(12.0);
  EXPECT_TRUE(tracker.IsStale(kObj));
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 2);
}

// ---------- Combined -----------------------------------------------------------

TEST(CombinedTest, StaleUnderEitherCriterion) {
  sim::Simulator sim;
  UpdateQueue queue(16);
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, &queue,
                           StalenessCriterion::kCombined, 7.0);
  // UU-stale before alpha.
  sim.RunUntil(1.0);
  Enqueue(&queue, &tracker, MakeUpdate(1, 0.5));
  EXPECT_TRUE(tracker.IsStale(kObj));
  // Other object: MA-stale after alpha even with empty queue.
  EXPECT_FALSE(tracker.IsStale({ObjectClass::kLowImportance, 1}));
  sim.RunUntil(8.0);
  EXPECT_TRUE(tracker.IsStale({ObjectClass::kLowImportance, 1}));
}

TEST(CombinedTest, FreshRequiresBoth) {
  sim::Simulator sim;
  UpdateQueue queue(16);
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, &queue,
                           StalenessCriterion::kCombined, 7.0);
  sim.RunUntil(8.0);
  const Update u = MakeUpdate(1, 7.9);
  Enqueue(&queue, &tracker, u);
  EXPECT_TRUE(tracker.IsStale(kObj));  // stale under both
  Dequeue(&queue, &tracker, u);
  Install(&database, &tracker, kObj, u.generation_time);
  EXPECT_FALSE(tracker.IsStale(kObj));
}

// ---------- misc ------------------------------------------------------------

TEST(StalenessTrackerTest, HighPartitionIsIndependent) {
  sim::Simulator sim;
  UpdateQueue queue(16);
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, &queue,
                           StalenessCriterion::kUnappliedUpdate, 0.0);
  Enqueue(&queue, &tracker, MakeUpdate(1, 1.0, kHighObj));
  EXPECT_TRUE(tracker.IsStale(kHighObj));
  EXPECT_FALSE(tracker.IsStale(kObj));
  EXPECT_DOUBLE_EQ(tracker.FractionStaleNow(ObjectClass::kHighImportance),
                   0.5);
  EXPECT_DOUBLE_EQ(tracker.FractionStaleNow(ObjectClass::kLowImportance),
                   0.0);
}

TEST(StalenessTrackerDeathTest, InvalidUse) {
  sim::Simulator sim;
  Database database(2, 2);
  EXPECT_DEATH(StalenessTracker(&sim, &database, nullptr,
                                StalenessCriterion::kMaxAge, 0.0),
               "max age");
  EXPECT_DEATH(StalenessTracker(&sim, &database, nullptr,
                                StalenessCriterion::kUnappliedUpdate, 0.0),
               "reads an update queue");
  EXPECT_DEATH(StalenessTracker(&sim, &database, nullptr,
                                StalenessCriterion::kCombined, 7.0),
               "reads an update queue");
  // The tracker's per-object state starts with the database's.
  Database written(2, 2);
  ASSERT_TRUE(written.Apply(MakeUpdate(1, 1.0)));
  EXPECT_DEATH(StalenessTracker(&sim, &written, nullptr,
                                StalenessCriterion::kMaxAge, 7.0),
               "unwritten database");
  UpdateQueue queue(4);
  StalenessTracker tracker(&sim, &database, &queue,
                           StalenessCriterion::kUnappliedUpdate, 0.0);
  Enqueue(&queue, &tracker, MakeUpdate(1, 1.0));
  // The tracker keeps no copy of the queue to check against; removing
  // an update under another object's identity trips the queue's own
  // consistency check instead.
  EXPECT_DEATH(queue.Remove(MakeUpdate(1, 1.0, {ObjectClass::kLowImportance,
                                                1})),
               "out of sync");
  EXPECT_DEATH(tracker.IsStale({ObjectClass::kLowImportance, 9}),
               "out of range");
}

TEST(StalenessTrackerTest, AccessorsExposeConfiguration) {
  sim::Simulator sim;
  Database database(2, 2);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAge, 7.0);
  EXPECT_EQ(tracker.criterion(), StalenessCriterion::kMaxAge);
  EXPECT_DOUBLE_EQ(tracker.max_age(), 7.0);
}

// ---------- lazy expiry vs per-object expiry events ---------------------------

TEST(LazyExpiryTest, MillionObjectTrackerSchedulesNoEvents) {
  sim::Simulator sim;
  Database database(500000, 500000);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAge, 7.0);
  EXPECT_EQ(sim.events_pending(), 0u);
  sim.RunUntil(0.5);
  Install(&database, &tracker, {ObjectClass::kLowImportance, 3}, 0.5);
  EXPECT_EQ(sim.events_pending(), 0u);
  sim.RunUntil(7.0);
  // The rest of the t = 0 cohort expires at exactly alpha.
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 499999);
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kHighImportance), 500000);
  sim.RunUntil(7.5);
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 500000);
}

TEST(LazyExpiryTest, ReappliedObjectExpiresOnceAtItsNewestTime) {
  sim::Simulator sim;
  Database database(1, 1);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAge, 7.0);
  sim.RunUntil(1.0);
  // Leaves the cohort; expiry armed at 8.
  Install(&database, &tracker, kObj, 1.0);
  sim.RunUntil(3.0);
  // Supersedes it; expiry now at 10.
  Install(&database, &tracker, kObj, 3.0);
  sim.RunUntil(8.5);
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 0);
  sim.RunUntil(10.0);
  EXPECT_EQ(tracker.StaleCount(ObjectClass::kLowImportance), 1);
  sim.RunUntil(12.0);
  // Stale only over [10, 12] of [0, 12]: the superseded entry at 8 and
  // the cohort at 7 never counted.
  EXPECT_EQ(tracker.FractionStaleAverage(ObjectClass::kLowImportance, 12.0),
            2.0 / 12.0);
}

// The tracker as it was when every MA expiry was its own simulator
// event: one event per fresh object, cancelled and rescheduled on each
// apply. The lazy heap and t = 0 cohort must reproduce it bit for bit.
class EventExpiryTracker {
 public:
  EventExpiryTracker(sim::Simulator* simulator, StalenessCriterion criterion,
                     sim::Duration max_age, int n_low, int n_high)
      : simulator_(simulator),
        criterion_(criterion),
        max_age_(max_age),
        objects_{std::vector<ObjectState>(static_cast<std::size_t>(n_low)),
                 std::vector<ObjectState>(static_cast<std::size_t>(n_high))} {
    for (sim::TimeWeighted& signal : stale_) {
      signal.StartAt(simulator_->now(), 0.0);
    }
    if (!UsesMaxAge()) return;
    for (int i = 0; i < n_low; ++i) {
      ScheduleExpiry({ObjectClass::kLowImportance, i});
    }
    for (int i = 0; i < n_high; ++i) {
      ScheduleExpiry({ObjectClass::kHighImportance, i});
    }
  }

  void ResetObservation() {
    for (sim::TimeWeighted& signal : stale_) {
      signal.StartAt(simulator_->now(), signal.value());
    }
  }

  void OnApply(ObjectId id, sim::Time generation, sim::Time arrival) {
    ObjectState& s = state(id);
    s.db_generation = generation;
    s.freshness = criterion_ == StalenessCriterion::kMaxAgeArrival
                      ? arrival
                      : generation;
    if (UsesMaxAge()) ScheduleExpiry(id);
    Refresh(id);
  }

  void OnEnqueued(const Update& update) {
    ObjectState& s = state(update.object);
    const Key key{update.generation_time, update.id.value()};
    s.queued.insert(std::upper_bound(s.queued.begin(), s.queued.end(), key),
                    key);
    Refresh(update.object);
  }

  void OnRemovedFromQueue(const Update& update) {
    ObjectState& s = state(update.object);
    const Key key{update.generation_time, update.id.value()};
    s.queued.erase(std::lower_bound(s.queued.begin(), s.queued.end(), key));
    Refresh(update.object);
  }

  bool IsStale(ObjectId id) { return ComputeStale(state(id)); }

  int StaleCount(ObjectClass cls) const {
    return static_cast<int>(signal(cls).value());
  }

  double FractionStaleNow(ObjectClass cls) const {
    return signal(cls).value() / Size(cls);
  }

  double FractionStaleAverage(ObjectClass cls, sim::Time end) const {
    return signal(cls).Average(end) / Size(cls);
  }

 private:
  using Key = std::pair<sim::Time, std::uint64_t>;
  struct ObjectState {
    sim::Time db_generation = 0;
    sim::Time freshness = 0;
    std::vector<Key> queued;
    sim::EventQueue::Handle expiry;
    bool stale = false;
  };

  bool UsesMaxAge() const {
    return criterion_ != StalenessCriterion::kUnappliedUpdate;
  }
  ObjectState& state(ObjectId id) {
    return objects_[static_cast<int>(id.cls)]
                   [static_cast<std::size_t>(id.index)];
  }
  const sim::TimeWeighted& signal(ObjectClass cls) const {
    return stale_[static_cast<int>(cls)];
  }
  double Size(ObjectClass cls) const {
    return static_cast<double>(objects_[static_cast<int>(cls)].size());
  }

  bool ComputeStale(const ObjectState& s) const {
    const bool ma = simulator_->now() - s.freshness >= max_age_;
    const bool uu =
        !s.queued.empty() && s.queued.back().first > s.db_generation;
    switch (criterion_) {
      case StalenessCriterion::kMaxAge:
      case StalenessCriterion::kMaxAgeArrival:
        return ma;
      case StalenessCriterion::kUnappliedUpdate:
        return uu;
      case StalenessCriterion::kCombined:
        return ma || uu;
    }
    return false;
  }

  void Refresh(ObjectId id) {
    ObjectState& s = state(id);
    const bool now_stale = ComputeStale(s);
    if (now_stale == s.stale) return;
    s.stale = now_stale;
    sim::TimeWeighted& signal = stale_[static_cast<int>(id.cls)];
    signal.Set(simulator_->now(), signal.value() + (now_stale ? 1.0 : -1.0));
  }

  void ScheduleExpiry(ObjectId id) {
    ObjectState& s = state(id);
    simulator_->Cancel(s.expiry);
    const sim::Time expiry_time = s.freshness + max_age_;
    if (expiry_time <= simulator_->now()) {
      Refresh(id);
      return;
    }
    s.expiry =
        simulator_->ScheduleAt(expiry_time, [this, id] { Refresh(id); });
  }

  sim::Simulator* simulator_;
  StalenessCriterion criterion_;
  sim::Duration max_age_;
  std::vector<ObjectState> objects_[kNumObjectClasses];
  sim::TimeWeighted stale_[kNumObjectClasses];
};

class LazyExpiryEquivalenceTest
    : public ::testing::TestWithParam<StalenessCriterion> {};

// A randomized churn of applies, enqueues, removals and reads, driven
// by one clock for both trackers. Op times land on exactly alpha, on
// armed expiry instants and on repeated instants as well as between
// them. After every op the two must agree to the bit.
TEST_P(LazyExpiryEquivalenceTest, MatchesPerObjectEventsBitForBit) {
  constexpr double kAlpha = 2.0;
  constexpr int kLow = 40;
  constexpr int kHigh = 24;
  constexpr int kOps = 100000;
  const StalenessCriterion criterion = GetParam();
  sim::Simulator sim;
  UpdateQueue queue(1u << 20);  // never full: no evictions here
  Database database(kLow, kHigh);
  StalenessTracker lazy(&sim, &database, &queue, criterion, kAlpha);
  EventExpiryTracker reference(&sim, criterion, kAlpha, kLow, kHigh);
  sim::RandomStream random(base::RngSeed(static_cast<std::uint64_t>(
      17 + static_cast<int>(criterion))));

  std::vector<Update> queued;
  // Expiry instants armed so far; the next op can land exactly on one.
  std::priority_queue<double, std::vector<double>, std::greater<>> armed;
  armed.push(kAlpha);
  std::uint64_t next_update_id = 1;
  double now = 0;

  for (int op = 0; op < kOps; ++op) {
    double next = now + random.Exponential(0.01);
    const double landing = random.Uniform(0, 1);
    while (!armed.empty() && armed.top() < now) armed.pop();
    if (landing < 0.15 && !armed.empty()) {
      next = armed.top();
    } else if (landing < 0.25) {
      next = now;
    }
    if (now < kAlpha && next > kAlpha) next = kAlpha;
    now = next;
    sim.RunUntil(now);

    const int k = random.UniformInt(0, kLow + kHigh - 1);
    const ObjectId id = k < kLow
                            ? ObjectId{ObjectClass::kLowImportance, k}
                            : ObjectId{ObjectClass::kHighImportance, k - kLow};
    switch (random.UniformInt(0, 3)) {
      case 0: {  // apply, sometimes of a value already older than alpha
        const double generation =
            std::max(database.generation_time(id),
                     now - random.Uniform(0, 1.5 * kAlpha));
        const double arrival =
            std::min(now, generation + random.Uniform(0, 0.5 * kAlpha));
        Update u = MakeUpdate(0, generation, id);
        u.arrival_time = arrival;
        if (!database.Apply(u)) break;  // unworthy: nothing to report
        lazy.OnApply(u);
        reference.OnApply(id, generation, arrival);
        armed.push((criterion == StalenessCriterion::kMaxAgeArrival
                        ? arrival
                        : generation) +
                   kAlpha);
        break;
      }
      case 1: {  // enqueue
        const Update u = MakeUpdate(next_update_id++,
                                    now - random.Uniform(0, kAlpha), id);
        queued.push_back(u);
        ASSERT_TRUE(queue.Push(u).empty());
        lazy.OnEnqueued(u);
        reference.OnEnqueued(u);
        break;
      }
      case 2: {  // remove
        if (queued.empty()) break;
        const auto victim = static_cast<std::size_t>(
            random.UniformInt(0, static_cast<int>(queued.size()) - 1));
        ASSERT_TRUE(queue.Remove(queued[victim]));
        lazy.OnRemovedFromQueue(queued[victim]);
        reference.OnRemovedFromQueue(queued[victim]);
        queued[victim] = queued.back();
        queued.pop_back();
        break;
      }
      default:  // read only; now and then restart the observation
        if (random.WithProbability(0.002)) {
          lazy.ResetObservation();
          reference.ResetObservation();
        }
        break;
    }

    ASSERT_EQ(lazy.IsStale(id), reference.IsStale(id)) << "op " << op;
    for (const ObjectClass cls :
         {ObjectClass::kLowImportance, ObjectClass::kHighImportance}) {
      ASSERT_EQ(lazy.StaleCount(cls), reference.StaleCount(cls))
          << "op " << op << " t=" << now;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(lazy.FractionStaleNow(cls)),
                std::bit_cast<std::uint64_t>(reference.FractionStaleNow(cls)))
          << "op " << op << " t=" << now;
      ASSERT_EQ(
          std::bit_cast<std::uint64_t>(lazy.FractionStaleAverage(cls, now)),
          std::bit_cast<std::uint64_t>(
              reference.FractionStaleAverage(cls, now)))
          << "op " << op << " t=" << now;
    }
  }
  EXPECT_GT(now, 100 * kAlpha);  // the churn spans many expiry rounds
}

INSTANTIATE_TEST_SUITE_P(
    AllCriteria, LazyExpiryEquivalenceTest,
    ::testing::Values(StalenessCriterion::kMaxAge,
                      StalenessCriterion::kUnappliedUpdate,
                      StalenessCriterion::kCombined,
                      StalenessCriterion::kMaxAgeArrival),
    [](const ::testing::TestParamInfo<StalenessCriterion>& param) {
      switch (param.param) {
        case StalenessCriterion::kMaxAge:
          return "MA";
        case StalenessCriterion::kUnappliedUpdate:
          return "UU";
        case StalenessCriterion::kCombined:
          return "Combined";
        case StalenessCriterion::kMaxAgeArrival:
          return "MaxAgeArrival";
      }
      return "Unknown";
    });

// ---------- UU read from the queue vs a per-object queue copy ---------------

class QueueReadEquivalenceTest
    : public ::testing::TestWithParam<StalenessCriterion> {};

// The tracker reads UU from the update queue itself. Drive a real,
// bounded queue through the operations core::System performs: pushes
// with overflow evictions, FIFO/LIFO and per-class pops, Maximum-Age
// purges, On-Demand peek-and-remove, and installs. The reference keeps
// a sorted copy of each object's queued updates and hears of every
// queue change one update at a time, while the tracker is told after
// a whole batch has left the queue. A push into the full queue can
// evict the pushed update itself; the reference then sees it queued
// for an instant, and so must the tracker, or the stale-count integral
// is split at a different instant and rounds differently. After every
// op the two must agree to the bit.
TEST_P(QueueReadEquivalenceTest, MatchesPerObjectQueueCopyBitForBit) {
  constexpr double kAlpha = 2.0;
  constexpr int kLow = 40;
  constexpr int kHigh = 24;
  constexpr int kOps = 100000;
  const StalenessCriterion criterion = GetParam();
  sim::Simulator sim;
  UpdateQueue queue(24);
  Database database(kLow, kHigh);
  StalenessTracker tracker(&sim, &database, &queue, criterion, kAlpha);
  EventExpiryTracker reference(&sim, criterion, kAlpha, kLow, kHigh);
  sim::RandomStream random(base::RngSeed(static_cast<std::uint64_t>(
      31 + static_cast<int>(criterion))));

  auto object_at = [&](int k) {
    return k < kLow ? ObjectId{ObjectClass::kLowImportance, k}
                    : ObjectId{ObjectClass::kHighImportance, k - kLow};
  };
  auto random_class = [&] {
    return random.WithProbability(0.5) ? ObjectClass::kLowImportance
                                       : ObjectClass::kHighImportance;
  };
  // Armed expiries as (instant, object); the t = 0 cohort is one entry.
  using Armed = std::pair<double, int>;
  std::priority_queue<Armed, std::vector<Armed>, std::greater<>> armed;
  armed.push({kAlpha, 0});
  auto apply = [&](ObjectId id, double generation) {
    const int k = id.cls == ObjectClass::kLowImportance ? id.index
                                                        : kLow + id.index;
    const Update u = MakeUpdate(0, generation, id);
    if (!database.Apply(u)) return;  // unworthy
    tracker.OnApply(u);
    reference.OnApply(id, generation, generation);
    armed.push({generation + kAlpha, k});
  };
  auto left_queue = [&](const Update& u) {
    tracker.OnRemovedFromQueue(u);
    reference.OnRemovedFromQueue(u);
  };
  std::uint64_t next_update_id = 1;
  std::uint64_t pops = 0;
  std::uint64_t purged_total = 0;
  double now = 0;

  for (int op = 0; op < kOps; ++op) {
    double next = now + random.Exponential(0.01);
    const double landing = random.Uniform(0, 1);
    if (landing < 0.15 && !armed.empty()) {
      next = std::max(now, armed.top().first);
    } else if (landing < 0.25) {
      next = now;
    }
    // Objects whose expiry fell before this op: the tracker catches
    // them up late, as of their own instants, inside the op's first
    // call, after the op changed the queue. Aim half the ops at one.
    std::vector<int> passed;
    while (!armed.empty() && armed.top().first < next) {
      passed.push_back(armed.top().second);
      armed.pop();
    }
    now = next;
    sim.RunUntil(now);

    const ObjectId id = object_at(
        !passed.empty() && random.WithProbability(0.5)
            ? passed[static_cast<std::size_t>(random.UniformInt(
                  0, static_cast<int>(passed.size()) - 1))]
            : random.UniformInt(0, kLow + kHigh - 1));
    switch (random.UniformInt(0, 7)) {
      case 0:
      case 1:  // a burst of pushes; a coarse grid makes equal times
        for (int n = random.UniformInt(1, 6); n > 0; --n) {
          double generation = now - random.Uniform(0, 1.5 * kAlpha);
          if (random.WithProbability(0.3)) {
            generation = 0.25 * static_cast<double>(
                                    static_cast<long>(generation / 0.25));
          }
          const Update u = MakeUpdate(
              next_update_id++, generation,
              n == 1 ? id : object_at(random.UniformInt(0, kLow + kHigh - 1)));
          const std::vector<Update> evicted = queue.Push(u);
          tracker.OnEnqueued(u);
          reference.OnEnqueued(u);
          for (const Update& e : evicted) left_queue(e);
        }
        break;
      case 2: {  // FIFO or LIFO service, then install
        const std::optional<Update> u = random.WithProbability(0.5)
                                            ? queue.PopOldest()
                                            : queue.PopNewest();
        if (!u.has_value()) break;
        ++pops;
        left_queue(*u);
        apply(u->object, u->generation_time);
        break;
      }
      case 3: {  // split-importance service, then install
        const ObjectClass cls = random_class();
        const std::optional<Update> u = random.WithProbability(0.5)
                                            ? queue.PopOldestOfClass(cls)
                                            : queue.PopNewestOfClass(cls);
        if (!u.has_value()) break;
        ++pops;
        left_queue(*u);
        apply(u->object, u->generation_time);
        break;
      }
      case 4: {  // Maximum-Age purge, or a purge at a random cutoff
        const double cutoff = random.WithProbability(0.7)
                                  ? now - kAlpha
                                  : now - random.Uniform(0, kAlpha);
        const std::vector<Update> purged = queue.PurgeGeneratedBefore(cutoff);
        purged_total += purged.size();
        for (const Update& u : purged) left_queue(u);
        break;
      }
      case 5: {  // On Demand: install the object's newest queued update
        const std::optional<Update> u = queue.PeekNewestFor(id);
        if (!u.has_value()) break;
        ASSERT_TRUE(queue.Remove(*u));
        left_queue(*u);
        apply(id, u->generation_time);
        break;
      }
      case 6:  // an install that bypassed the queue
        apply(id, now - random.Uniform(0, 1.5 * kAlpha));
        break;
      default:  // read only; now and then restart the observation
        if (random.WithProbability(0.002)) {
          tracker.ResetObservation();
          reference.ResetObservation();
        }
        break;
    }

    for (int k = 0; k < kLow + kHigh; ++k) {
      ASSERT_EQ(tracker.IsStale(object_at(k)),
                reference.IsStale(object_at(k)))
          << "op " << op << " object " << k;
    }
    for (const ObjectClass cls :
         {ObjectClass::kLowImportance, ObjectClass::kHighImportance}) {
      ASSERT_EQ(tracker.StaleCount(cls), reference.StaleCount(cls))
          << "op " << op << " t=" << now;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(tracker.FractionStaleNow(cls)),
                std::bit_cast<std::uint64_t>(reference.FractionStaleNow(cls)))
          << "op " << op << " t=" << now;
      ASSERT_EQ(
          std::bit_cast<std::uint64_t>(tracker.FractionStaleAverage(cls, now)),
          std::bit_cast<std::uint64_t>(
              reference.FractionStaleAverage(cls, now)))
          << "op " << op << " t=" << now;
    }
  }
  // Every kind of queue change happened many times over.
  EXPECT_GT(queue.overflow_drops(), 1000u);
  EXPECT_GT(pops, 1000u);
  EXPECT_GT(purged_total, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    QueueCriteria, QueueReadEquivalenceTest,
    ::testing::Values(StalenessCriterion::kUnappliedUpdate,
                      StalenessCriterion::kCombined),
    [](const ::testing::TestParamInfo<StalenessCriterion>& param) {
      return param.param == StalenessCriterion::kUnappliedUpdate
                 ? "UU"
                 : "Combined";
    });

}  // namespace
}  // namespace strip::db
