#include "db/database.h"

#include <gtest/gtest.h>

namespace strip::db {
namespace {

Update MakeUpdate(ObjectId object, sim::Time generation, double value = 1.0) {
  static std::uint64_t next_id = 0;
  Update u;
  u.id = base::UpdateId(++next_id);
  u.object = object;
  u.generation_time = generation;
  u.arrival_time = generation + 0.1;
  u.value = value;
  return u;
}

// The object table is one 32-byte record per object, whatever the
// number of attributes.
static_assert(sizeof(ObjectRecord) <= 32);

TEST(DatabaseTest, SizesMatchConstruction) {
  Database db(500, 300);
  EXPECT_EQ(db.size(ObjectClass::kLowImportance), 500);
  EXPECT_EQ(db.size(ObjectClass::kHighImportance), 300);
  EXPECT_EQ(db.total_size(), 800);
}

TEST(DatabaseTest, ObjectsStartAtGenerationZero) {
  Database db(10, 10);
  EXPECT_DOUBLE_EQ(db.generation_time({ObjectClass::kLowImportance, 0}), 0.0);
  EXPECT_DOUBLE_EQ(db.generation_time({ObjectClass::kHighImportance, 9}),
                   0.0);
  EXPECT_DOUBLE_EQ(db.value({ObjectClass::kLowImportance, 3}), 0.0);
}

TEST(DatabaseTest, ApplyWritesNewerValue) {
  Database db(10, 10);
  const ObjectId id{ObjectClass::kLowImportance, 4};
  EXPECT_TRUE(db.Apply(MakeUpdate(id, 5.0, 42.0)));
  EXPECT_DOUBLE_EQ(db.generation_time(id), 5.0);
  EXPECT_DOUBLE_EQ(db.value(id), 42.0);
  EXPECT_EQ(db.writes(), 1u);
  EXPECT_EQ(db.skipped_writes(), 0u);
}

TEST(DatabaseTest, WorthinessCheckSkipsOlderUpdate) {
  Database db(10, 10);
  const ObjectId id{ObjectClass::kHighImportance, 2};
  ASSERT_TRUE(db.Apply(MakeUpdate(id, 5.0, 1.0)));
  EXPECT_FALSE(db.Apply(MakeUpdate(id, 3.0, 2.0)));
  EXPECT_DOUBLE_EQ(db.generation_time(id), 5.0);
  EXPECT_DOUBLE_EQ(db.value(id), 1.0);
  EXPECT_EQ(db.skipped_writes(), 1u);
}

TEST(DatabaseTest, WorthinessCheckSkipsEqualGeneration) {
  Database db(10, 10);
  const ObjectId id{ObjectClass::kLowImportance, 0};
  ASSERT_TRUE(db.Apply(MakeUpdate(id, 5.0, 1.0)));
  EXPECT_FALSE(db.Apply(MakeUpdate(id, 5.0, 2.0)));
  EXPECT_DOUBLE_EQ(db.value(id), 1.0);
}

TEST(DatabaseTest, PartitionsAreIndependent) {
  Database db(10, 10);
  ASSERT_TRUE(db.Apply(MakeUpdate({ObjectClass::kLowImportance, 3}, 5.0)));
  EXPECT_DOUBLE_EQ(db.generation_time({ObjectClass::kHighImportance, 3}),
                   0.0);
}

TEST(DatabaseTest, AgeAt) {
  Database db(10, 10);
  const ObjectId id{ObjectClass::kLowImportance, 1};
  ASSERT_TRUE(db.Apply(MakeUpdate(id, 4.0)));
  EXPECT_DOUBLE_EQ(db.AgeAt(id, 10.0), 6.0);
}

TEST(DatabaseTest, SequenceOfNewerUpdatesAllApply) {
  Database db(10, 10);
  const ObjectId id{ObjectClass::kLowImportance, 7};
  for (int i = 1; i <= 10; ++i) {
    EXPECT_TRUE(db.Apply(MakeUpdate(id, i, i * 1.0)));
  }
  EXPECT_EQ(db.writes(), 10u);
  EXPECT_DOUBLE_EQ(db.value(id), 10.0);
}

TEST(DatabaseDeathTest, OutOfRangeIndexDies) {
  Database db(10, 10);
  EXPECT_DEATH(db.generation_time({ObjectClass::kLowImportance, 10}),
               "out of range");
  EXPECT_DEATH(db.generation_time({ObjectClass::kLowImportance, -1}),
               "out of range");
  EXPECT_DEATH(db.Apply(MakeUpdate({ObjectClass::kHighImportance, 99}, 1.0)),
               "out of range");
}

// ---------- partial updates (multi-attribute objects) -----------------------

Update MakePartial(ObjectId object, int attribute, sim::Time generation,
                   double value = 1.0) {
  Update u = MakeUpdate(object, generation, value);
  u.attribute = attribute;
  return u;
}

TEST(PartialUpdateTest, SingleAttributeDatabaseByDefault) {
  Database db(4, 4);
  EXPECT_EQ(db.n_attributes(), 1);
  EXPECT_DOUBLE_EQ(
      db.attribute_generation({ObjectClass::kLowImportance, 0}, 0), 0.0);
}

TEST(PartialUpdateTest, EffectiveGenerationIsOldestAttribute) {
  Database db(4, 4, /*n_attributes=*/3);
  const ObjectId id{ObjectClass::kLowImportance, 1};
  EXPECT_TRUE(db.Apply(MakePartial(id, 0, 5.0)));
  EXPECT_TRUE(db.Apply(MakePartial(id, 1, 7.0)));
  // Attribute 2 still at generation 0 -> object effectively at 0.
  EXPECT_DOUBLE_EQ(db.generation_time(id), 0.0);
  EXPECT_TRUE(db.Apply(MakePartial(id, 2, 6.0)));
  EXPECT_DOUBLE_EQ(db.generation_time(id), 5.0);
  EXPECT_DOUBLE_EQ(db.attribute_generation(id, 1), 7.0);
}

TEST(PartialUpdateTest, WorthinessIsPerAttribute) {
  Database db(4, 4, 2);
  const ObjectId id{ObjectClass::kLowImportance, 0};
  ASSERT_TRUE(db.Apply(MakePartial(id, 0, 5.0)));
  // Older than attribute 0 -> unworthy for attribute 0...
  EXPECT_FALSE(db.IsWorthy(MakePartial(id, 0, 4.0)));
  // ...but worthy for attribute 1, which is still at 0.
  EXPECT_TRUE(db.IsWorthy(MakePartial(id, 1, 4.0)));
  EXPECT_TRUE(db.Apply(MakePartial(id, 1, 4.0)));
  EXPECT_DOUBLE_EQ(db.generation_time(id), 4.0);
}

TEST(PartialUpdateTest, CompleteUpdateRefreshesEveryAttribute) {
  Database db(4, 4, 3);
  const ObjectId id{ObjectClass::kLowImportance, 2};
  ASSERT_TRUE(db.Apply(MakePartial(id, 0, 3.0)));
  Update complete = MakeUpdate(id, 8.0, 99.0);  // attribute = -1
  EXPECT_TRUE(db.Apply(complete));
  EXPECT_DOUBLE_EQ(db.generation_time(id), 8.0);
  for (int a = 0; a < 3; ++a) {
    EXPECT_DOUBLE_EQ(db.attribute_generation(id, a), 8.0);
  }
  // A complete update older than the effective generation is unworthy.
  EXPECT_FALSE(db.IsWorthy(MakeUpdate(id, 7.0)));
}

TEST(PartialUpdateTest, EffectiveGenerationIsMonotone) {
  Database db(4, 4, 2);
  const ObjectId id{ObjectClass::kLowImportance, 3};
  double last = db.generation_time(id);
  for (int i = 1; i <= 20; ++i) {
    db.Apply(MakePartial(id, i % 2, static_cast<double>(i)));
    EXPECT_GE(db.generation_time(id), last);
    last = db.generation_time(id);
  }
}

// The attribute side table is one flat n × n_attributes array with
// the low partition first: the last attribute of each partition's last
// object is a row boundary that a wrong stride or offset would cross.
TEST(PartialUpdateTest, SideTableRowsOfLastObjectsAreTheirOwn) {
  constexpr int kAttributes = 4;
  Database db(5, 3, kAttributes);
  const ObjectId last_low{ObjectClass::kLowImportance, 4};
  const ObjectId last_high{ObjectClass::kHighImportance, 2};
  const ObjectId first_high{ObjectClass::kHighImportance, 0};
  ASSERT_TRUE(db.Apply(MakePartial(last_low, kAttributes - 1, 3.0, 7.0)));
  ASSERT_TRUE(db.Apply(MakePartial(last_high, kAttributes - 1, 4.0, 8.0)));
  EXPECT_DOUBLE_EQ(db.attribute_generation(last_low, kAttributes - 1), 3.0);
  EXPECT_DOUBLE_EQ(db.attribute_generation(last_high, kAttributes - 1), 4.0);
  EXPECT_DOUBLE_EQ(db.value(last_low), 7.0);
  EXPECT_DOUBLE_EQ(db.value(last_high), 8.0);
  // Neighbouring rows and the untouched attributes stay at 0.
  for (int a = 0; a < kAttributes; ++a) {
    EXPECT_DOUBLE_EQ(db.attribute_generation(first_high, a), 0.0);
    EXPECT_DOUBLE_EQ(
        db.attribute_generation({ObjectClass::kLowImportance, 3}, a), 0.0);
    EXPECT_DOUBLE_EQ(
        db.attribute_generation({ObjectClass::kHighImportance, 1}, a), 0.0);
  }
  for (int a = 0; a < kAttributes - 1; ++a) {
    EXPECT_DOUBLE_EQ(db.attribute_generation(last_low, a), 0.0);
    EXPECT_DOUBLE_EQ(db.attribute_generation(last_high, a), 0.0);
  }
  // A partial update leaves the effective generation at the oldest.
  EXPECT_DOUBLE_EQ(db.generation_time(last_low), 0.0);
  EXPECT_DOUBLE_EQ(db.generation_time(last_high), 0.0);

  // Complete updates fill exactly their own row.
  ASSERT_TRUE(db.Apply(MakeUpdate(last_low, 5.0)));
  ASSERT_TRUE(db.Apply(MakeUpdate(last_high, 6.0)));
  for (int a = 0; a < kAttributes; ++a) {
    EXPECT_DOUBLE_EQ(db.attribute_generation(last_low, a), 5.0);
    EXPECT_DOUBLE_EQ(db.attribute_generation(last_high, a), 6.0);
    EXPECT_DOUBLE_EQ(db.attribute_generation(first_high, a), 0.0);
  }
  EXPECT_DOUBLE_EQ(db.generation_time(last_low), 5.0);
  EXPECT_DOUBLE_EQ(db.generation_time(last_high), 6.0);
  EXPECT_DOUBLE_EQ(db.generation_time(first_high), 0.0);

  // Then a partial update to the last attribute moves only its entry.
  ASSERT_TRUE(db.Apply(MakePartial(last_high, kAttributes - 1, 9.0)));
  EXPECT_DOUBLE_EQ(db.attribute_generation(last_high, kAttributes - 1), 9.0);
  EXPECT_DOUBLE_EQ(db.attribute_generation(last_high, 0), 6.0);
  EXPECT_DOUBLE_EQ(db.generation_time(last_high), 6.0);
  EXPECT_FALSE(db.IsWorthy(MakePartial(last_high, kAttributes - 1, 9.0)));
  EXPECT_TRUE(db.IsWorthy(MakePartial(last_high, 0, 9.0)));
  EXPECT_EQ(db.writes(), 5u);
}

TEST(PartialUpdateDeathTest, AttributeOutOfRangeDies) {
  Database db(4, 4, 2);
  const ObjectId id{ObjectClass::kLowImportance, 0};
  EXPECT_DEATH(db.Apply(MakePartial(id, 2, 1.0)), "attribute");
  EXPECT_DEATH(db.attribute_generation(id, 5), "attribute");
}

TEST(ObjectClassTest, Names) {
  EXPECT_STREQ(ObjectClassName(ObjectClass::kLowImportance), "low");
  EXPECT_STREQ(ObjectClassName(ObjectClass::kHighImportance), "high");
}

TEST(ObjectIdTest, EqualityAndHash) {
  const ObjectId a{ObjectClass::kLowImportance, 3};
  const ObjectId b{ObjectClass::kLowImportance, 3};
  const ObjectId c{ObjectClass::kHighImportance, 3};
  const ObjectId d{ObjectClass::kLowImportance, 4};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  ObjectIdHash hash;
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_NE(hash(a), hash(c));
}

}  // namespace
}  // namespace strip::db
