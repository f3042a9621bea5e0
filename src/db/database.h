// The in-memory view database: one table of 32-byte object records.
//
// Holds the two view partitions (low / high importance) as one flat
// array, low objects first. Each object's record stores its current
// value and the generation timestamp of that value; transactions read
// view objects, the update process writes them. Installing an update
// performs the paper's "worthiness check": if the database already
// holds a value at least as recent as the update's, the write is
// skipped (Section 3.3).
//
// The record also carries the staleness tracker's per-object state
// (db/staleness.h): the MA freshness, the live expiry entry and the
// stale flags. The tracker is built over the database and reads the
// generation where the database wrote it, so an install's worthiness
// check, write and staleness update touch one 32-byte record instead
// of two arrays, and the object table costs 32 B per object.
//
// Partial updates (a paper future-work item, Sections 2/7): when the
// database is built with n_attributes > 1, each update may refresh a
// single attribute, and an object's generation timestamp — the basis
// of every staleness decision — is that of its *oldest* attribute: an
// object is only as fresh as the attribute least recently refreshed.
// The per-attribute generations live in one flat n × n_attributes
// side table, allocated only when n_attributes > 1.
//
// General (non-view) data is modelled separately — see
// db/general_store.h — because its access cost is folded into
// transaction computation time and it never becomes stale.

#ifndef STRIP_DB_DATABASE_H_
#define STRIP_DB_DATABASE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "db/object.h"
#include "db/update.h"
#include "sim/sim_time.h"

namespace strip::db {

// One view object. All objects start with value 0 and generation 0
// ("fresh as of the start of the run").
struct ObjectRecord {
  double value = 0;
  // Effective generation: min over attributes (== the single
  // generation when n_attributes is 1).
  sim::Time generation_time = 0;

  // The fields below belong to the StalenessTracker.
  // The timestamp MA-style aging runs on: the generation time, or the
  // arrival time under the arrival-based MA criterion.
  sim::Time freshness = 0;
  // Low 32 bits of the sequence of the object's live expiry-heap
  // entry; 0 if none.
  std::uint32_t expiry_seq = 0;
  // Still in the t = 0 cohort: never applied since construction.
  bool initial = true;
  bool stale = false;
  // The UU verdict as of the object's last Refresh. Every queue
  // change refreshes its object, so this is what the queue said until
  // the change being reported; expiries caught up late are evaluated
  // with it, as of their own earlier instants.
  bool uu_stale = false;
};
static_assert(sizeof(ObjectRecord) <= 32,
              "the object table is 32 B per object");

class Database {
 public:
  // Creates a database with `n_low` low-importance and `n_high`
  // high-importance view objects of `n_attributes` attributes each.
  Database(int n_low, int n_high, int n_attributes = 1);

  // Number of objects in a partition.
  int size(ObjectClass cls) const {
    return cls == ObjectClass::kLowImportance ? n_low_
                                              : total_size() - n_low_;
  }

  // Total number of view objects.
  int total_size() const { return static_cast<int>(records_.size()); }

  // Would installing `update` write anything? A complete update is
  // worthy if strictly newer than the object's (effective) generation;
  // a partial update if strictly newer than its target attribute's.
  bool IsWorthy(const Update& update) const;

  // Installs `update` if it is worthy. Returns true if the value was
  // written. Either way the caller pays the lookup cost; the write
  // cost applies only on true (cost accounting is the controller's
  // job).
  bool Apply(const Update& update);

  // Effective generation timestamp of an object's current value: with
  // multiple attributes, the generation of the *oldest* attribute.
  sim::Time generation_time(ObjectId id) const {
    return record(id).generation_time;
  }

  // Generation timestamp of one attribute (attribute databases only).
  sim::Time attribute_generation(ObjectId id, int attribute) const;

  int n_attributes() const { return n_attributes_; }

  // Current value of an object.
  double value(ObjectId id) const { return record(id).value; }

  // Age of an object's current value at time `now`.
  sim::Duration AgeAt(ObjectId id, sim::Time now) const {
    return now - generation_time(id);
  }

  // Count of updates actually written (worthy installs).
  std::uint64_t writes() const { return writes_; }
  // Count of installs skipped by the worthiness check.
  std::uint64_t skipped_writes() const { return skipped_writes_; }

 private:
  // The tracker reads and writes its own fields of each record.
  friend class StalenessTracker;

  // Position of an object in the table; dies if out of range.
  int Index(ObjectId id) const;

  const ObjectRecord& record(ObjectId id) const { return records_[Index(id)]; }
  ObjectRecord& record(ObjectId id) { return records_[Index(id)]; }

  // One partition's records, in index order.
  std::span<ObjectRecord> partition(ObjectClass cls) {
    const std::span<ObjectRecord> all(records_);
    return cls == ObjectClass::kLowImportance ? all.first(n_low_)
                                              : all.subspan(n_low_);
  }

  // The attribute generations of the object at `index` (attribute
  // databases only).
  sim::Time* attributes(int index) {
    return attribute_generations_.data() +
           static_cast<std::size_t>(index) * n_attributes_;
  }
  const sim::Time* attributes(int index) const {
    return attribute_generations_.data() +
           static_cast<std::size_t>(index) * n_attributes_;
  }

  bool IsWorthyAt(int index, const Update& update) const;
  int CheckedAttribute(const Update& update) const;

  int n_attributes_;
  int n_low_;
  std::vector<ObjectRecord> records_;
  // n × n_attributes_ generations, row per object; empty when
  // n_attributes_ is 1.
  std::vector<sim::Time> attribute_generations_;
  std::uint64_t writes_ = 0;
  std::uint64_t skipped_writes_ = 0;
};

}  // namespace strip::db

#endif  // STRIP_DB_DATABASE_H_
