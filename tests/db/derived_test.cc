#include "db/derived.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace strip::db {
namespace {

using Aggregation = DerivedRegistry::Aggregation;

Update MakeUpdate(std::uint64_t id, ObjectId object, sim::Time generation,
                  double value) {
  Update u;
  u.id = base::UpdateId(id);
  u.object = object;
  u.generation_time = generation;
  u.arrival_time = generation;
  u.value = value;
  return u;
}

DerivedRegistry::Definition Portfolio(Aggregation aggregation) {
  DerivedRegistry::Definition def;
  def.name = "portfolio";
  def.aggregation = aggregation;
  def.inputs = {{ObjectClass::kHighImportance, 0},
                {ObjectClass::kHighImportance, 1},
                {ObjectClass::kHighImportance, 2}};
  return def;
}

TEST(DerivedRegistryTest, DefineAssignsDenseIds) {
  DerivedRegistry registry;
  EXPECT_EQ(registry.size(), 0);
  EXPECT_EQ(registry.Define(Portfolio(Aggregation::kAverage)), 0);
  EXPECT_EQ(registry.Define(Portfolio(Aggregation::kSum)), 1);
  EXPECT_EQ(registry.size(), 2);
  EXPECT_EQ(registry.Get(0).name, "portfolio");
  EXPECT_EQ(registry.Get(1).aggregation, Aggregation::kSum);
}

TEST(DerivedRegistryTest, AggregationsOverDatabaseValues) {
  Database database(4, 4);
  database.Apply(MakeUpdate(1, {ObjectClass::kHighImportance, 0}, 1.0, 10));
  database.Apply(MakeUpdate(2, {ObjectClass::kHighImportance, 1}, 1.0, 20));
  database.Apply(MakeUpdate(3, {ObjectClass::kHighImportance, 2}, 1.0, 60));

  DerivedRegistry registry;
  const int avg = registry.Define(Portfolio(Aggregation::kAverage));
  const int sum = registry.Define(Portfolio(Aggregation::kSum));
  const int min = registry.Define(Portfolio(Aggregation::kMin));
  const int max = registry.Define(Portfolio(Aggregation::kMax));
  EXPECT_DOUBLE_EQ(registry.Value(avg, database), 30.0);
  EXPECT_DOUBLE_EQ(registry.Value(sum, database), 90.0);
  EXPECT_DOUBLE_EQ(registry.Value(min, database), 10.0);
  EXPECT_DOUBLE_EQ(registry.Value(max, database), 60.0);
}

TEST(DerivedRegistryTest, EffectiveGenerationIsOldestInput) {
  Database database(4, 4);
  database.Apply(MakeUpdate(1, {ObjectClass::kHighImportance, 0}, 5.0, 1));
  database.Apply(MakeUpdate(2, {ObjectClass::kHighImportance, 1}, 2.0, 1));
  database.Apply(MakeUpdate(3, {ObjectClass::kHighImportance, 2}, 9.0, 1));
  DerivedRegistry registry;
  const int id = registry.Define(Portfolio(Aggregation::kAverage));
  EXPECT_DOUBLE_EQ(registry.EffectiveGeneration(id, database), 2.0);
}

TEST(DerivedRegistryTest, StaleIfAnyInputStale) {
  sim::Simulator sim;
  Database database(4, 4);
  StalenessTracker tracker(&sim, &database, nullptr,
                           StalenessCriterion::kMaxAge, 7.0);
  DerivedRegistry registry;
  const int id = registry.Define(Portfolio(Aggregation::kAverage));
  EXPECT_FALSE(registry.IsStale(id, tracker));

  // Refresh inputs 0 and 2 but let input 1 expire.
  sim.RunUntil(6.0);
  for (const int input : {0, 2}) {
    const Update u =
        MakeUpdate(input + 1, {ObjectClass::kHighImportance, input}, 6.0, 1);
    ASSERT_TRUE(database.Apply(u));
    tracker.OnApply(u);
  }
  sim.RunUntil(8.0);  // input 1's initial value (gen 0) is now stale
  EXPECT_TRUE(registry.IsStale(id, tracker));
  const auto stale = registry.StaleInputs(id, tracker);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], (ObjectId{ObjectClass::kHighImportance, 1}));
}

TEST(DerivedRegistryTest, FresheningUpdatesAnswersTheOdQuestion) {
  Database database(4, 4);
  UpdateQueue queue(16);
  DerivedRegistry registry;
  const int id = registry.Define(Portfolio(Aggregation::kAverage));

  // Input 0: a worthy update queued. Input 1: only an unworthy (older)
  // one. Input 2: nothing queued.
  database.Apply(MakeUpdate(1, {ObjectClass::kHighImportance, 1}, 5.0, 1));
  queue.Push(MakeUpdate(10, {ObjectClass::kHighImportance, 0}, 4.0, 2));
  queue.Push(MakeUpdate(11, {ObjectClass::kHighImportance, 0}, 6.0, 3));
  queue.Push(MakeUpdate(12, {ObjectClass::kHighImportance, 1}, 3.0, 4));

  const auto updates = registry.FresheningUpdates(id, database, queue);
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].id.value(), 11u);  // the newest worthy one for input 0
}

TEST(DerivedRegistryTest, UuStalenessPropagates) {
  sim::Simulator sim;
  UpdateQueue queue(16);
  Database database(4, 4);
  StalenessTracker tracker(&sim, &database, &queue,
                           StalenessCriterion::kUnappliedUpdate, 0.0);
  DerivedRegistry registry;
  const int id = registry.Define(Portfolio(Aggregation::kAverage));
  EXPECT_FALSE(registry.IsStale(id, tracker));
  // A queued newer update for one constituent makes the whole
  // portfolio UU-stale.
  const Update u = MakeUpdate(1, {ObjectClass::kHighImportance, 1}, 1.0, 5.0);
  queue.Push(u);
  tracker.OnEnqueued(u);
  EXPECT_TRUE(registry.IsStale(id, tracker));
  EXPECT_EQ(registry.StaleInputs(id, tracker).size(), 1u);
}

TEST(DerivedRegistryDeathTest, InvalidUse) {
  DerivedRegistry registry;
  DerivedRegistry::Definition empty;
  empty.name = "empty";
  EXPECT_DEATH(registry.Define(empty), "at least one input");
  EXPECT_DEATH(registry.Get(0), "out of range");
}

}  // namespace
}  // namespace strip::db
