// Staleness criteria and exact stale-set tracking.
//
// The paper defines two criteria (Section 2):
//
//  - Maximum Age (MA): an object is stale when the age of its current
//    value — now minus its generation timestamp — exceeds a maximum
//    age alpha. Even an unchanged object goes stale if not refreshed.
//  - Unapplied Update (UU): an object is fresh unless the update queue
//    holds an update for it that is newer than the database value.
//    (The strict reading — "any unapplied update in the queue" —
//    would count an object as stale even when the database already
//    holds a newer value than everything queued for it, e.g. after a
//    LIFO install; we use the semantic reading, and the worthiness
//    check discards such worthless queued updates when popped.)
//  - Combined (extension, sketched in Section 2): stale under either.
//
// The tracker maintains the stale set *event-wise*: every database
// write, queue insert/remove, and MA expiry updates a per-object flag
// and a time-weighted stale count, so the staleness fraction f_old of
// Section 3.5 is an exact integral rather than a sampled estimate.
//
// The tracker is built over the Database and keeps no per-object
// array of its own: its per-object state (the MA freshness, the live
// expiry entry's sequence, the stale, UU and t = 0 cohort flags) lives
// in the database's object record next to the generation it is
// derived from (db/database.h).
//
// UU is read from the controller's UpdateQueue itself: an object is
// UU-stale when the queue's newest update for it (PeekNewestFor, one
// indexed load) is newer than the database value. The tracker keeps
// no copy of the queue; the queue-change callbacks only re-evaluate
// the object's flag after the queue has changed, so the stale-count
// signal sees the same changes per-update bookkeeping would.
//
// MA expiries do not go through the simulator. An object's pending
// expiry is one entry in a tracker-local min-heap ordered by (expiry
// time, local sequence). Nothing is ever cancelled: re-applying an
// object that already has an entry leaves it in place, and when it
// pops before the object's current expiry it is pushed again at that
// expiry. Only an apply that moves the expiry earlier (possible under
// MA-arrival) pushes a second entry; the superseded one is skipped
// when popped. The initial values, all "fresh as of t = 0", form one
// implicit cohort that expires at alpha in a single pass.
//
// Every public entry point except IsStale (which reads timestamps)
// first catches up: it applies each expiry due at or before now,
// cohort first, then heap entries in (time, sequence) order,
// evaluating each at its own expiry time. The stale-count signal thus
// sees the same (time, value) changes a per-object expiry event would
// have produced; only same-instant changes can be reordered, and those
// add nothing to the integral.

#ifndef STRIP_DB_STALENESS_H_
#define STRIP_DB_STALENESS_H_

#include <cstdint>
#include <vector>

#include "db/database.h"
#include "db/object.h"
#include "db/update.h"
#include "db/update_queue.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace strip::db {

enum class StalenessCriterion {
  kMaxAge = 0,
  kUnappliedUpdate = 1,
  kCombined = 2,
  // Section 2's variation: "in the MA staleness definition we could
  // replace generation time by arrival time" — an object is stale when
  // the *arrival* of its current value is older than alpha, i.e.,
  // every object should receive an update at least every alpha
  // seconds, regardless of network aging.
  kMaxAgeArrival = 3,
};

// Printable name ("MA" / "UU" / "MA+UU" / "MA-arrival").
const char* StalenessCriterionName(StalenessCriterion criterion);

// True if staleness under `criterion` can be checked from the object's
// timestamp alone (no update-queue search needed): the MA family.
bool DetectableByTimestamp(StalenessCriterion criterion);

class StalenessTracker {
 public:
  // `max_age` is alpha; it is ignored under kUnappliedUpdate. The
  // tracker tracks the objects of `database`, which must outlive it
  // and must not have been written yet: all objects start fresh with
  // generation time 0. It reads the clock of `simulator`, which must
  // outlive it, and schedules no events on it. Under UU and MA+UU it
  // reads `queue`, which must outlive it; the MA family reads no queue
  // and `queue` may be null.
  StalenessTracker(sim::Simulator* simulator, Database* database,
                   const UpdateQueue* queue, StalenessCriterion criterion,
                   sim::Duration max_age);

  StalenessTracker(const StalenessTracker&) = delete;
  StalenessTracker& operator=(const StalenessTracker&) = delete;

  // Restarts the time-weighted statistics at the current simulation
  // time, carrying the current stale set forward. Used to exclude a
  // warm-up period.
  void ResetObservation();

  // The database just wrote `update` (Database::Apply returned true).
  // The object's new effective generation is read from the database;
  // the update's arrival time feeds the arrival-based MA criterion.
  void OnApply(const Update& update);

  // `update` entered the controller's update queue. Call after the
  // queue has changed: the flag is re-evaluated against it, with
  // `update` counted as queued even if the push evicted it again (an
  // eviction is reported next, by OnRemovedFromQueue).
  void OnEnqueued(const Update& update);

  // `update` left the update queue (installed, expired, or evicted).
  // Call after the queue has changed.
  void OnRemovedFromQueue(const Update& update);

  // Is the object stale right now, under this tracker's criterion?
  bool IsStale(ObjectId id) const;

  // Number of currently stale objects in a partition.
  int StaleCount(ObjectClass cls) const;

  // Fraction of the partition currently stale.
  double FractionStaleNow(ObjectClass cls) const;

  // Time-averaged stale fraction over [observation start, end] — the
  // paper's f_old_l / f_old_h.
  double FractionStaleAverage(ObjectClass cls, sim::Time end) const;

  StalenessCriterion criterion() const { return criterion_; }
  sim::Duration max_age() const { return max_age_; }

 private:
  // One pending MA expiry. An entry whose `seq` no longer matches the
  // object's `expiry_seq` (its low 32 bits) was superseded and is
  // skipped. The full sequence orders entries of the same instant.
  struct Expiry {
    sim::Time time;
    std::uint64_t seq;
    ObjectId id;

    // Heap order: the earliest (time, seq) is the smallest.
    bool operator>(const Expiry& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  // The UU verdict read from the queue: does it hold an update for
  // `id` (whose record is `r`) newer than the database value?
  // `entering` (if not null) counts as queued too: OnEnqueued reports
  // an update that a full queue may already have evicted again, and
  // the verdict must see it queued until that eviction is reported.
  bool QueueSaysStale(ObjectId id, const ObjectRecord& r,
                      const Update* entering) const;

  // The flag under this criterion at `t`, given the UU verdict.
  bool ComputeStale(const ObjectRecord& r, sim::Time t, bool uu_stale) const;

  // Re-reads the object's UU verdict from the queue (UU and MA+UU
  // only), then re-evaluates its flag as of `t`.
  void Refresh(ObjectId id, ObjectRecord& r, sim::Time t,
               const Update* entering = nullptr);

  // Re-evaluates one object's flag as of `t` with its stored UU
  // verdict and folds any change into its class's stale-count signal
  // at `t`.
  void Reevaluate(ObjectRecord& r, ObjectClass cls, sim::Time t);

  // Arms the MA expiry of an object whose freshness an apply just
  // moved; `previous_expiry` is its expiry before the apply.
  void ScheduleExpiry(ObjectId id, ObjectRecord& r,
                      sim::Time previous_expiry);

  // Pushes the object's live heap entry, superseding any other.
  void PushExpiry(ObjectId id, ObjectRecord& r, sim::Time expiry_time);

  // Applies every expiry due at or before now. Readers call it too:
  // it only materializes expiries that have already happened.
  void CatchUp() const;
  void ApplyDueExpiries();

  bool UsesMaxAge() const {
    return criterion_ != StalenessCriterion::kUnappliedUpdate;
  }
  bool ReadsQueue() const {
    return criterion_ == StalenessCriterion::kUnappliedUpdate ||
           criterion_ == StalenessCriterion::kCombined;
  }

  sim::Simulator* simulator_;
  Database* database_;
  const UpdateQueue* queue_;
  StalenessCriterion criterion_;
  sim::Duration max_age_;
  // Min-heap on (time, seq) of pending expiries.
  std::vector<Expiry> expiries_;
  std::uint64_t next_expiry_seq_ = 1;
  // When the t = 0 cohort expires, and whether it still has to.
  sim::Time cohort_time_ = 0;
  bool cohort_pending_ = false;
  // Stale *count* per class, integrated over time.
  sim::TimeWeighted stale_fraction_[kNumObjectClasses];
};

}  // namespace strip::db

#endif  // STRIP_DB_STALENESS_H_
