// The controller's update queue (Figure 2, step 3).
//
// Unapplied updates wait here, ordered by *generation* time — not
// arrival time — so the system can install in generation order despite
// network jitter and can discard expired updates from the front in
// O(1) amortized (Section 3.3). The queue is bounded: pushing beyond
// `max_size` evicts the oldest-generation entries (Section 4.2).
//
// Removal supports both queueing disciplines the paper studies:
// PopOldest (FIFO) and PopNewest (LIFO), plus the per-object access
// needed by the On Demand policy (PeekNewestFor / Remove).
//
// Implementation note: updates live in a pooled slab (slots recycled
// through a free list) and are indexed twice, by packed
// (generation_time, id, slot) keys:
//
//  - per importance class, a flat sorted vector with a head offset, so
//    FIFO service and Maximum-Age purges are O(1) amortized pops with
//    batched compaction, and inserts/erases shift whichever side of the
//    vector is shorter (the paper's near-in-generation-order arrivals
//    cost a few cache lines each);
//  - per object, a small sorted vector in a dense table indexed by
//    ObjectId::index, so PeekNewestFor is one indexed load. A table
//    grows the first time an index is pushed; buffers keep their
//    capacity, so a warmed-up queue allocates nothing per update.
//
// There is no global index: with two classes, the global (time, id)
// order is the merge of the two class indexes, so the oldest or newest
// update overall is the lesser front or greater back of the two.
//
// The *simulated* cost of a scan is charged separately by the
// controller (x_scan · queue size for the plain queue of the paper,
// constant for the hash-indexed extension of Sections 4.2/4.4); the
// data structure itself is cost-model agnostic.

#ifndef STRIP_DB_UPDATE_QUEUE_H_
#define STRIP_DB_UPDATE_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "db/object.h"
#include "db/update.h"
#include "sim/sim_time.h"

namespace strip::db {

class UpdateQueue {
 public:
  // A queue holding at most `max_size` updates.
  explicit UpdateQueue(std::size_t max_size);

  // Inserts `update`, evicting oldest-generation entries if the queue
  // would exceed its bound. Returns the evicted updates (usually empty;
  // possibly containing `update` itself if it is older than everything
  // in a full queue).
  std::vector<Update> Push(const Update& update);

  // Removes and returns the oldest-generation update (FIFO service).
  std::optional<Update> PopOldest();

  // Removes and returns the newest-generation update (LIFO service).
  std::optional<Update> PopNewest();

  // Class-filtered variants, for split-importance queue service (the
  // TF enhancement sketched in Section 4.2): oldest / newest update
  // targeting the given partition, or nullopt if none is queued.
  std::optional<Update> PopOldestOfClass(ObjectClass cls);
  std::optional<Update> PopNewestOfClass(ObjectClass cls);

  // Number of queued updates targeting the given partition.
  std::size_t SizeOfClass(ObjectClass cls) const {
    return by_class_[static_cast<int>(cls)].size();
  }

  // Removes and returns every update with generation_time < cutoff
  // (expired under Maximum Age). Ordered oldest first.
  std::vector<Update> PurgeGeneratedBefore(sim::Time cutoff);

  // Newest queued update for `object`, if any. Does not remove it.
  std::optional<Update> PeekNewestFor(ObjectId object) const;

  // Removes the specific update identified by `update.id` (and its
  // generation time). Returns true if it was present. A queued update
  // with that identity must target `update.object`.
  bool Remove(const Update& update);

  std::size_t size() const {
    return by_class_[0].size() + by_class_[1].size();
  }
  bool empty() const { return size() == 0; }
  std::size_t max_size() const { return max_size_; }

  // Lifetime eviction count (overflow drops).
  std::uint64_t overflow_drops() const { return overflow_drops_; }

 private:
  // Orders by generation time, then by creation id for determinism.
  // `slot` locates the update in the pool and does not participate in
  // ordering.
  struct Key {
    sim::Time time;
    std::uint64_t id;
    std::uint32_t slot;
  };

  static bool KeyLess(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;
  }
  static bool KeySame(const Key& a, const Key& b) {
    return a.time == b.time && a.id == b.id;
  }

  // A sorted key sequence backed by a flat vector with a head offset:
  // front pops just advance the head (compacted in batches), and
  // middle insert/erase shifts whichever side is shorter, so both FIFO
  // and LIFO service are O(1) amortized.
  class FlatKeyIndex {
   public:
    std::size_t size() const { return keys_.size() - head_; }
    bool empty() const { return head_ == keys_.size(); }
    const Key& front() const { return keys_[head_]; }
    const Key& back() const { return keys_.back(); }
    // i-th key from the front (0-based).
    const Key& at(std::size_t i) const { return keys_[head_ + i]; }

    // Inserts maintaining order. Returns false (and inserts nothing)
    // if a key with the same (time, id) is already present.
    bool Insert(const Key& key);
    // Removes the key with `key`'s (time, id), if present. When found,
    // `*slot` receives the stored slot index.
    bool Erase(const Key& key, std::uint32_t* slot);

    void PopFront();
    void PopBack() { keys_.pop_back(); }
    // Number of leading keys with time < cutoff.
    std::size_t CountBefore(sim::Time cutoff) const;
    // Drops the first n keys in one batch.
    void DropFront(std::size_t n);

   private:
    // Absolute index of the first key not less than `key`.
    std::size_t LowerBound(const Key& key) const;
    void MaybeCompact();

    std::vector<Key> keys_;
    std::size_t head_ = 0;
  };

  FlatKeyIndex& class_index(ObjectClass cls) {
    return by_class_[static_cast<int>(cls)];
  }

  std::uint32_t AcquireSlot(const Update& update);

  // Removes a key already taken out of its class index from the
  // per-object index and frees its pool slot; returns the update.
  Update Detach(const Key& key);

  std::size_t max_size_;
  // Pooled update storage; `free_slots_` holds recyclable entries.
  std::vector<Update> pool_;
  std::vector<std::uint32_t> free_slots_;
  // Per-class generation order; together they hold every queued key.
  FlatKeyIndex by_class_[kNumObjectClasses];
  // Per-class dense table of per-object key vectors, indexed by
  // ObjectId::index; each vector is sorted so back() is the newest. A
  // vector is tiny (load factor ~ queue size / database size), so a
  // plain sorted vector beats a tree.
  std::vector<std::vector<Key>> by_object_[kNumObjectClasses];
  std::uint64_t overflow_drops_ = 0;
};

}  // namespace strip::db

#endif  // STRIP_DB_UPDATE_QUEUE_H_
