#include "db/database.h"

#include <algorithm>

#include "base/check.h"

namespace strip::db {

namespace {

int CheckedTotal(int n_low, int n_high, int n_attributes) {
  STRIP_CHECK_MSG(n_low >= 0 && n_high >= 0, "negative partition size");
  STRIP_CHECK_MSG(n_attributes >= 1, "need at least one attribute");
  return n_low + n_high;
}

}  // namespace

const char* ObjectClassName(ObjectClass cls) {
  return cls == ObjectClass::kLowImportance ? "low" : "high";
}

Database::Database(int n_low, int n_high, int n_attributes)
    : n_attributes_(n_attributes),
      n_low_(n_low),
      records_(CheckedTotal(n_low, n_high, n_attributes)) {
  if (n_attributes_ > 1) {
    attribute_generations_.assign(records_.size() * n_attributes_, 0.0);
  }
}

int Database::Index(ObjectId id) const {
  STRIP_CHECK_MSG(id.index >= 0 && id.index < size(id.cls),
                  "object index out of range");
  return id.cls == ObjectClass::kLowImportance ? id.index
                                               : n_low_ + id.index;
}

int Database::CheckedAttribute(const Update& update) const {
  STRIP_CHECK_MSG(update.attribute >= 0 && update.attribute < n_attributes_,
                  "attribute index out of range");
  return update.attribute;
}

sim::Time Database::attribute_generation(ObjectId id, int attribute) const {
  const int index = Index(id);
  if (n_attributes_ == 1) {
    STRIP_CHECK_MSG(attribute == 0, "attribute index out of range");
    return records_[index].generation_time;
  }
  STRIP_CHECK_MSG(attribute >= 0 && attribute < n_attributes_,
                  "attribute index out of range");
  return attributes(index)[attribute];
}

bool Database::IsWorthy(const Update& update) const {
  return IsWorthyAt(Index(update.object), update);
}

bool Database::IsWorthyAt(int index, const Update& update) const {
  if (n_attributes_ == 1 || update.attribute < 0) {
    // Complete update: worthy if newer than the effective generation.
    return update.generation_time > records_[index].generation_time;
  }
  return update.generation_time >
         attributes(index)[CheckedAttribute(update)];
}

bool Database::Apply(const Update& update) {
  const int index = Index(update.object);
  if (!IsWorthyAt(index, update)) {
    ++skipped_writes_;
    return false;
  }
  ObjectRecord& record = records_[index];
  if (n_attributes_ == 1 || update.attribute < 0) {
    // Complete update: every attribute refreshed at once.
    record.generation_time = update.generation_time;
    if (n_attributes_ > 1) {
      std::fill_n(attributes(index), n_attributes_, update.generation_time);
    }
  } else {
    sim::Time* generations = attributes(index);
    generations[CheckedAttribute(update)] = update.generation_time;
    // The object is only as fresh as its oldest attribute.
    record.generation_time =
        *std::min_element(generations, generations + n_attributes_);
  }
  record.value = update.value;
  ++writes_;
  return true;
}

}  // namespace strip::db
