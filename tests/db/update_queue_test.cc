#include "db/update_queue.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/random.h"

namespace strip::db {
namespace {

Update MakeUpdate(std::uint64_t id, sim::Time generation,
                  ObjectId object = {ObjectClass::kLowImportance, 0}) {
  Update u;
  u.id = base::UpdateId(id);
  u.object = object;
  u.generation_time = generation;
  u.arrival_time = generation + 0.1;
  u.value = static_cast<double>(id);
  return u;
}

TEST(UpdateQueueTest, StartsEmpty) {
  UpdateQueue queue(10);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(queue.PopOldest().has_value());
  EXPECT_FALSE(queue.PopNewest().has_value());
}

TEST(UpdateQueueTest, PopOldestFollowsGenerationOrder) {
  UpdateQueue queue(10);
  queue.Push(MakeUpdate(1, 3.0));
  queue.Push(MakeUpdate(2, 1.0));
  queue.Push(MakeUpdate(3, 2.0));
  EXPECT_EQ(queue.PopOldest()->id.value(), 2u);
  EXPECT_EQ(queue.PopOldest()->id.value(), 3u);
  EXPECT_EQ(queue.PopOldest()->id.value(), 1u);
}

TEST(UpdateQueueTest, PopNewestIsReverseGenerationOrder) {
  UpdateQueue queue(10);
  queue.Push(MakeUpdate(1, 3.0));
  queue.Push(MakeUpdate(2, 1.0));
  queue.Push(MakeUpdate(3, 2.0));
  EXPECT_EQ(queue.PopNewest()->id.value(), 1u);
  EXPECT_EQ(queue.PopNewest()->id.value(), 3u);
  EXPECT_EQ(queue.PopNewest()->id.value(), 2u);
}

TEST(UpdateQueueTest, GenerationTiesBreakById) {
  UpdateQueue queue(10);
  queue.Push(MakeUpdate(5, 1.0));
  queue.Push(MakeUpdate(3, 1.0));
  queue.Push(MakeUpdate(7, 1.0));
  EXPECT_EQ(queue.PopOldest()->id.value(), 3u);
  EXPECT_EQ(queue.PopOldest()->id.value(), 5u);
  EXPECT_EQ(queue.PopOldest()->id.value(), 7u);
}

TEST(UpdateQueueTest, OverflowEvictsOldestGeneration) {
  UpdateQueue queue(3);
  queue.Push(MakeUpdate(1, 1.0));
  queue.Push(MakeUpdate(2, 2.0));
  queue.Push(MakeUpdate(3, 3.0));
  const std::vector<Update> evicted = queue.Push(MakeUpdate(4, 4.0));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id.value(), 1u);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.overflow_drops(), 1u);
}

TEST(UpdateQueueTest, OverflowCanEvictThePushedUpdateItself) {
  UpdateQueue queue(2);
  queue.Push(MakeUpdate(1, 5.0));
  queue.Push(MakeUpdate(2, 6.0));
  // Older than everything in a full queue: it is the one dropped.
  const std::vector<Update> evicted = queue.Push(MakeUpdate(3, 1.0));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id.value(), 3u);
  EXPECT_EQ(queue.PopOldest()->generation_time, 5.0);
}

TEST(UpdateQueueTest, PurgeRemovesStrictlyOlderGenerations) {
  UpdateQueue queue(10);
  queue.Push(MakeUpdate(1, 1.0));
  queue.Push(MakeUpdate(2, 2.0));
  queue.Push(MakeUpdate(3, 3.0));
  const std::vector<Update> purged = queue.PurgeGeneratedBefore(2.0);
  ASSERT_EQ(purged.size(), 1u);
  EXPECT_EQ(purged[0].id.value(), 1u);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.PopOldest()->generation_time, 2.0);
}

TEST(UpdateQueueTest, PurgeReturnsOldestFirst) {
  UpdateQueue queue(10);
  queue.Push(MakeUpdate(1, 3.0));
  queue.Push(MakeUpdate(2, 1.0));
  queue.Push(MakeUpdate(3, 2.0));
  const std::vector<Update> purged = queue.PurgeGeneratedBefore(10.0);
  ASSERT_EQ(purged.size(), 3u);
  EXPECT_EQ(purged[0].id.value(), 2u);
  EXPECT_EQ(purged[1].id.value(), 3u);
  EXPECT_EQ(purged[2].id.value(), 1u);
  EXPECT_TRUE(queue.empty());
}

TEST(UpdateQueueTest, PeekNewestForObject) {
  UpdateQueue queue(10);
  const ObjectId a{ObjectClass::kLowImportance, 1};
  const ObjectId b{ObjectClass::kLowImportance, 2};
  queue.Push(MakeUpdate(1, 1.0, a));
  queue.Push(MakeUpdate(2, 3.0, a));
  queue.Push(MakeUpdate(3, 2.0, b));
  const auto newest_a = queue.PeekNewestFor(a);
  ASSERT_TRUE(newest_a.has_value());
  EXPECT_EQ(newest_a->id.value(), 2u);
  EXPECT_EQ(queue.size(), 3u);  // peek does not remove
  EXPECT_EQ(queue.PeekNewestFor(b)->id.value(), 3u);
  EXPECT_FALSE(
      queue.PeekNewestFor({ObjectClass::kHighImportance, 1}).has_value());
}

TEST(UpdateQueueTest, PurgeMergesClassesOldestFirst) {
  UpdateQueue queue(10);
  const ObjectId low{ObjectClass::kLowImportance, 1};
  const ObjectId high{ObjectClass::kHighImportance, 1};
  queue.Push(MakeUpdate(1, 4.0, low));
  queue.Push(MakeUpdate(2, 1.0, high));
  queue.Push(MakeUpdate(3, 2.0, low));
  queue.Push(MakeUpdate(4, 3.0, high));
  queue.Push(MakeUpdate(5, 9.0, high));
  const std::vector<Update> purged = queue.PurgeGeneratedBefore(5.0);
  ASSERT_EQ(purged.size(), 4u);
  EXPECT_EQ(purged[0].id.value(), 2u);
  EXPECT_EQ(purged[1].id.value(), 3u);
  EXPECT_EQ(purged[2].id.value(), 4u);
  EXPECT_EQ(purged[3].id.value(), 1u);
  EXPECT_EQ(queue.size(), 1u);
  // Nothing older than the cutoff is left in either class.
  EXPECT_TRUE(queue.PurgeGeneratedBefore(5.0).empty());
}

TEST(UpdateQueueTest, PeekNewestForIsEmptyOnceTheObjectLeaves) {
  UpdateQueue queue(10);
  const ObjectId a{ObjectClass::kLowImportance, 1};
  // Far beyond anything pushed: the per-object table has not grown.
  EXPECT_FALSE(
      queue.PeekNewestFor({ObjectClass::kLowImportance, 1000}).has_value());
  EXPECT_FALSE(queue.PeekNewestFor(a).has_value());
  queue.Push(MakeUpdate(1, 1.0, a));
  EXPECT_TRUE(queue.PeekNewestFor(a).has_value());
  queue.PopOldest();
  EXPECT_FALSE(queue.PeekNewestFor(a).has_value());
}

TEST(UpdateQueueTest, RemoveSpecificUpdate) {
  UpdateQueue queue(10);
  const ObjectId a{ObjectClass::kLowImportance, 1};
  const Update u1 = MakeUpdate(1, 1.0, a);
  const Update u2 = MakeUpdate(2, 2.0, a);
  queue.Push(u1);
  queue.Push(u2);
  EXPECT_TRUE(queue.Remove(u1));
  EXPECT_FALSE(queue.Remove(u1));  // already gone
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.PeekNewestFor(a)->id.value(), 2u);
}

TEST(UpdateQueueTest, OldestAndNewestComeFromEitherClass) {
  UpdateQueue queue(10);
  const ObjectId low{ObjectClass::kLowImportance, 0};
  const ObjectId high{ObjectClass::kHighImportance, 0};
  queue.Push(MakeUpdate(1, 5.0, low));
  queue.Push(MakeUpdate(2, 2.0, high));
  queue.Push(MakeUpdate(3, 3.0, low));
  queue.Push(MakeUpdate(4, 7.0, high));
  // Equal generation times across classes order by id.
  queue.Push(MakeUpdate(6, 2.0, low));
  queue.Push(MakeUpdate(5, 7.0, low));
  EXPECT_EQ(queue.PopOldest()->id.value(), 2u);
  EXPECT_EQ(queue.PopNewest()->id.value(), 5u);
  EXPECT_EQ(queue.PopNewest()->id.value(), 4u);
  EXPECT_EQ(queue.PopOldest()->id.value(), 6u);
  EXPECT_EQ(queue.PopOldest()->id.value(), 3u);
  EXPECT_EQ(queue.PopNewest()->id.value(), 1u);
  EXPECT_TRUE(queue.empty());
}

TEST(UpdateQueueTest, OverflowEvictsTheOldestOfEitherClass) {
  UpdateQueue queue(2);
  queue.Push(MakeUpdate(1, 4.0, {ObjectClass::kLowImportance, 0}));
  queue.Push(MakeUpdate(2, 3.0, {ObjectClass::kHighImportance, 0}));
  const std::vector<Update> evicted =
      queue.Push(MakeUpdate(3, 5.0, {ObjectClass::kLowImportance, 1}));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id.value(), 2u);
  EXPECT_EQ(queue.SizeOfClass(ObjectClass::kHighImportance), 0u);
  EXPECT_EQ(queue.SizeOfClass(ObjectClass::kLowImportance), 2u);
}

TEST(UpdateQueueTest, ClassFilteredPops) {
  UpdateQueue queue(10);
  const ObjectId low{ObjectClass::kLowImportance, 1};
  const ObjectId high{ObjectClass::kHighImportance, 1};
  queue.Push(MakeUpdate(1, 1.0, low));
  queue.Push(MakeUpdate(2, 2.0, high));
  queue.Push(MakeUpdate(3, 3.0, low));
  queue.Push(MakeUpdate(4, 4.0, high));
  EXPECT_EQ(queue.SizeOfClass(ObjectClass::kLowImportance), 2u);
  EXPECT_EQ(queue.SizeOfClass(ObjectClass::kHighImportance), 2u);
  EXPECT_EQ(queue.PopOldestOfClass(ObjectClass::kHighImportance)->id.value(), 2u);
  EXPECT_EQ(queue.PopNewestOfClass(ObjectClass::kHighImportance)->id.value(), 4u);
  EXPECT_FALSE(
      queue.PopOldestOfClass(ObjectClass::kHighImportance).has_value());
  EXPECT_EQ(queue.PopNewestOfClass(ObjectClass::kLowImportance)->id.value(), 3u);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(UpdateQueueDeathTest, InvalidUse) {
  EXPECT_DEATH(UpdateQueue(0), "positive");
  UpdateQueue queue(4);
  queue.Push(MakeUpdate(1, 1.0));
  EXPECT_DEATH(queue.Push(MakeUpdate(1, 1.0)), "duplicate");
  EXPECT_DEATH(queue.Push(MakeUpdate(2, 1.0, {ObjectClass::kLowImportance,
                                               -1})),
               "out of range");
  // The queued update with this id belongs to another object.
  EXPECT_DEATH(
      queue.Remove(MakeUpdate(1, 1.0, {ObjectClass::kLowImportance, 3})),
      "out of sync");
}

// Property test: random pushes, global and per-class pops, purges,
// removes and peeks agree with a reference model holding one global
// (time, id) order. Half the generation times and cutoffs fall on a
// coarse grid, so equal times across the two classes are common and
// the cross-class merge must break them by id.
TEST(UpdateQueueTest, RandomOpsAgreeWithReferenceModel) {
  constexpr std::size_t kBound = 50;
  UpdateQueue queue(kBound);
  sim::RandomStream random(base::RngSeed(11));
  std::map<std::pair<sim::Time, std::uint64_t>, Update> model;
  std::uint64_t next_id = 0;

  auto draw_time = [&] {
    return random.WithProbability(0.5)
               ? static_cast<sim::Time>(random.UniformInt(0, 20)) * 5.0
               : random.Uniform(0, 100);
  };
  auto draw_class = [&] {
    return random.WithProbability(0.5) ? ObjectClass::kLowImportance
                                       : ObjectClass::kHighImportance;
  };
  // Oldest or newest model entry of a class, or end().
  auto model_find = [&](ObjectClass cls, bool oldest) {
    if (oldest) {
      for (auto it = model.begin(); it != model.end(); ++it) {
        if (it->second.object.cls == cls) return it;
      }
      return model.end();
    }
    for (auto it = model.rbegin(); it != model.rend(); ++it) {
      if (it->second.object.cls == cls) return std::prev(it.base());
    }
    return model.end();
  };

  for (int step = 0; step < 20000; ++step) {
    const int op = random.UniformInt(0, 6);
    if (op <= 1 || model.empty()) {  // push
      Update u = MakeUpdate(++next_id, draw_time(),
                            {draw_class(), random.UniformInt(0, 9)});
      const auto evicted = queue.Push(u);
      model.emplace(std::make_pair(u.generation_time, u.id.value()), u);
      std::size_t expected = 0;
      while (model.size() > kBound) {
        ASSERT_LT(expected, evicted.size());
        EXPECT_EQ(evicted[expected].id, model.begin()->second.id);
        model.erase(model.begin());
        ++expected;
      }
      EXPECT_EQ(evicted.size(), expected);
    } else if (op == 2) {  // pop oldest or newest
      if (random.WithProbability(0.5)) {
        const auto popped = queue.PopOldest();
        ASSERT_TRUE(popped.has_value());
        EXPECT_EQ(popped->id, model.begin()->second.id);
        model.erase(model.begin());
      } else {
        const auto popped = queue.PopNewest();
        ASSERT_TRUE(popped.has_value());
        EXPECT_EQ(popped->id, std::prev(model.end())->second.id);
        model.erase(std::prev(model.end()));
      }
    } else if (op == 3) {  // per-class pop, oldest or newest
      const ObjectClass cls = draw_class();
      const bool oldest = random.WithProbability(0.5);
      const auto popped = oldest ? queue.PopOldestOfClass(cls)
                                 : queue.PopNewestOfClass(cls);
      const auto it = model_find(cls, oldest);
      if (it == model.end()) {
        EXPECT_FALSE(popped.has_value());
      } else {
        ASSERT_TRUE(popped.has_value());
        EXPECT_EQ(popped->id, it->second.id);
        model.erase(it);
      }
    } else if (op == 4) {  // purge a random cutoff
      const sim::Time cutoff = draw_time();
      const auto purged = queue.PurgeGeneratedBefore(cutoff);
      std::size_t expected = 0;
      while (!model.empty() && model.begin()->first.first < cutoff) {
        ASSERT_LT(expected, purged.size());
        EXPECT_EQ(purged[expected].id, model.begin()->second.id);
        model.erase(model.begin());
        ++expected;
      }
      EXPECT_EQ(purged.size(), expected);
    } else if (op == 5) {  // remove a queued update, then a stale copy
      auto it = model.begin();
      std::advance(it, random.UniformInt(
                           0, static_cast<int>(model.size()) - 1));
      const Update victim = it->second;
      model.erase(it);
      EXPECT_TRUE(queue.Remove(victim));
      EXPECT_FALSE(queue.Remove(victim));
    } else {  // peek-newest-for consistency on a random object
      const ObjectId object{draw_class(), random.UniformInt(0, 9)};
      const auto peeked = queue.PeekNewestFor(object);
      // Reference: newest matching entry in the model.
      const Update* expected = nullptr;
      for (const auto& [key, u] : model) {
        if (u.object == object) expected = &u;
      }
      if (expected == nullptr) {
        EXPECT_FALSE(peeked.has_value());
      } else {
        ASSERT_TRUE(peeked.has_value());
        EXPECT_EQ(peeked->id, expected->id);
      }
    }
    ASSERT_EQ(queue.size(), model.size()) << "step " << step;
    std::size_t low = 0;
    for (const auto& [key, u] : model) {
      if (u.object.cls == ObjectClass::kLowImportance) ++low;
    }
    ASSERT_EQ(queue.SizeOfClass(ObjectClass::kLowImportance), low);
    ASSERT_EQ(queue.SizeOfClass(ObjectClass::kHighImportance),
              model.size() - low);
  }
}

}  // namespace
}  // namespace strip::db
