#include "db/update_queue.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/check.h"

namespace strip::db {

// ---------------------------------------------------------------------------
// FlatKeyIndex

std::size_t UpdateQueue::FlatKeyIndex::LowerBound(const Key& key) const {
  std::size_t lo = head_;
  std::size_t hi = keys_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (KeyLess(keys_[mid], key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool UpdateQueue::FlatKeyIndex::Insert(const Key& key) {
  const std::size_t pos = LowerBound(key);
  if (pos < keys_.size() && KeySame(keys_[pos], key)) return false;
  const std::size_t dist_front = pos - head_;
  const std::size_t dist_back = keys_.size() - pos;
  if (head_ > 0 && dist_front <= dist_back) {
    // Shift the (shorter) prefix one left into the head gap. Key is
    // trivially copyable, so memmove is fine.
    std::memmove(keys_.data() + head_ - 1, keys_.data() + head_,
                 dist_front * sizeof(Key));
    --head_;
    keys_[pos - 1] = key;
  } else {
    keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(pos), key);
  }
  return true;
}

bool UpdateQueue::FlatKeyIndex::Erase(const Key& key, std::uint32_t* slot) {
  const std::size_t pos = LowerBound(key);
  if (pos == keys_.size() || !KeySame(keys_[pos], key)) return false;
  if (slot != nullptr) *slot = keys_[pos].slot;
  const std::size_t dist_front = pos - head_;
  const std::size_t dist_back = keys_.size() - pos - 1;
  if (dist_front <= dist_back) {
    // Shift the (shorter) prefix one right over the erased key.
    std::memmove(keys_.data() + head_ + 1, keys_.data() + head_,
                 dist_front * sizeof(Key));
    ++head_;
    MaybeCompact();
  } else {
    keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  return true;
}

void UpdateQueue::FlatKeyIndex::PopFront() {
  ++head_;
  MaybeCompact();
}

std::size_t UpdateQueue::FlatKeyIndex::CountBefore(sim::Time cutoff) const {
  // First key not less than (cutoff, id 0) == first key with
  // time >= cutoff, since ids only refine equal times.
  return LowerBound(Key{cutoff, 0, 0}) - head_;
}

void UpdateQueue::FlatKeyIndex::DropFront(std::size_t n) {
  head_ += n;
  MaybeCompact();
}

void UpdateQueue::FlatKeyIndex::MaybeCompact() {
  // Reclaim the dead prefix once it dominates the buffer; batching the
  // memmove keeps front pops O(1) amortized.
  if (head_ >= 1024 && head_ * 2 >= keys_.size()) {
    keys_.erase(keys_.begin(), keys_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

// ---------------------------------------------------------------------------
// UpdateQueue

UpdateQueue::UpdateQueue(std::size_t max_size) : max_size_(max_size) {
  STRIP_CHECK_MSG(max_size > 0, "update queue bound must be positive");
}

std::uint32_t UpdateQueue::AcquireSlot(const Update& update) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    pool_[slot] = update;
    return slot;
  }
  pool_.push_back(update);
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

Update UpdateQueue::Detach(const Key& key) {
  Update update = pool_[key.slot];
  std::vector<Key>& keys = by_object_[static_cast<int>(update.object.cls)]
                                     [static_cast<std::size_t>(
                                         update.object.index)];
  const auto pos = std::lower_bound(keys.begin(), keys.end(), key, KeyLess);
  STRIP_CHECK_MSG(pos != keys.end() && KeySame(*pos, key),
                  "object index out of sync");
  keys.erase(pos);
  free_slots_.push_back(key.slot);
  return update;
}

std::vector<Update> UpdateQueue::Push(const Update& update) {
  const std::uint32_t slot = AcquireSlot(update);
  const Key key{update.generation_time, update.id.value(), slot};
  const bool inserted = class_index(update.object.cls).Insert(key);
  STRIP_CHECK_MSG(inserted, "duplicate update id pushed");
  STRIP_CHECK_MSG(update.object.index >= 0, "object index out of range");
  std::vector<std::vector<Key>>& table =
      by_object_[static_cast<int>(update.object.cls)];
  const auto index = static_cast<std::size_t>(update.object.index);
  if (index >= table.size()) table.resize(index + 1);
  std::vector<Key>& keys = table[index];
  keys.insert(std::lower_bound(keys.begin(), keys.end(), key, KeyLess), key);
  std::vector<Update> evicted;
  while (size() > max_size_) {
    evicted.push_back(*PopOldest());
    ++overflow_drops_;
  }
  return evicted;
}

// The global order is the merge of the two class indexes, so the
// oldest update overall is the lesser of their fronts and the newest
// the greater of their backs.
std::optional<Update> UpdateQueue::PopOldest() {
  const FlatKeyIndex& low = by_class_[0];
  const FlatKeyIndex& high = by_class_[1];
  const bool high_first =
      low.empty() || (!high.empty() && KeyLess(high.front(), low.front()));
  return PopOldestOfClass(high_first ? ObjectClass::kHighImportance
                                     : ObjectClass::kLowImportance);
}

std::optional<Update> UpdateQueue::PopNewest() {
  const FlatKeyIndex& low = by_class_[0];
  const FlatKeyIndex& high = by_class_[1];
  const bool high_last =
      low.empty() || (!high.empty() && KeyLess(low.back(), high.back()));
  return PopNewestOfClass(high_last ? ObjectClass::kHighImportance
                                    : ObjectClass::kLowImportance);
}

std::optional<Update> UpdateQueue::PopOldestOfClass(ObjectClass cls) {
  FlatKeyIndex& keys = class_index(cls);
  if (keys.empty()) return std::nullopt;
  const Key key = keys.front();
  keys.PopFront();
  return Detach(key);
}

std::optional<Update> UpdateQueue::PopNewestOfClass(ObjectClass cls) {
  FlatKeyIndex& keys = class_index(cls);
  if (keys.empty()) return std::nullopt;
  const Key key = keys.back();
  keys.PopBack();
  return Detach(key);
}

std::vector<Update> UpdateQueue::PurgeGeneratedBefore(sim::Time cutoff) {
  FlatKeyIndex& low = by_class_[0];
  FlatKeyIndex& high = by_class_[1];
  // Usually nothing is due, which the two fronts decide alone.
  const bool low_due = !low.empty() && low.front().time < cutoff;
  const bool high_due = !high.empty() && high.front().time < cutoff;
  if (!low_due && !high_due) return {};
  const std::size_t n_low = low_due ? low.CountBefore(cutoff) : 0;
  const std::size_t n_high = high_due ? high.CountBefore(cutoff) : 0;
  std::vector<Update> purged;
  purged.reserve(n_low + n_high);
  // Merge the two due prefixes so the result is oldest first across
  // classes; each class index then drops its prefix in one batch.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < n_low || j < n_high) {
    const bool take_low =
        j == n_high || (i < n_low && KeyLess(low.at(i), high.at(j)));
    purged.push_back(Detach(take_low ? low.at(i++) : high.at(j++)));
  }
  low.DropFront(n_low);
  high.DropFront(n_high);
  return purged;
}

std::optional<Update> UpdateQueue::PeekNewestFor(ObjectId object) const {
  const std::vector<std::vector<Key>>& table =
      by_object_[static_cast<int>(object.cls)];
  const auto index = static_cast<std::size_t>(object.index);
  if (index >= table.size() || table[index].empty()) return std::nullopt;
  return pool_[table[index].back().slot];
}

bool UpdateQueue::Remove(const Update& update) {
  std::uint32_t slot = 0;
  if (!class_index(update.object.cls)
           .Erase(Key{update.generation_time, update.id.value(), 0}, &slot)) {
    return false;
  }
  STRIP_CHECK_MSG(pool_[slot].object == update.object,
                  "object index out of sync with the removed update");
  Detach(Key{update.generation_time, update.id.value(), slot});
  return true;
}

}  // namespace strip::db
