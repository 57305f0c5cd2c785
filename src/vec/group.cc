#include "vec/group.h"

#include <cstring>

namespace scalewall::vec {

bool DirectLayout::Build(const std::vector<uint32_t>& cardinalities,
                        uint64_t max_slots) {
  strides.assign(cardinalities.size(), 1);
  cards = cardinalities;
  total_slots = 1;
  for (size_t i = cardinalities.size(); i-- > 0;) {
    strides[i] = total_slots;
    const uint64_t card = cardinalities[i];
    if (card == 0 || total_slots > max_slots / card) return false;
    total_slots *= card;
  }
  return total_slots <= max_slots;
}

void SlotAccumulate(const uint32_t* col, const uint32_t* rows, size_t n,
                    uint64_t stride, uint32_t* slots) {
  const uint32_t s = static_cast<uint32_t>(stride);
  for (size_t i = 0; i < n; ++i) {
    slots[i] += col[rows[i]] * s;
  }
}

void SlotAccumulateDense(const uint32_t* col, uint32_t begin, size_t n,
                         uint64_t stride, uint32_t* slots) {
  const uint32_t s = static_cast<uint32_t>(stride);
  for (size_t i = 0; i < n; ++i) {
    slots[i] += col[begin + i] * s;
  }
}

void SlotAccumulateGathered(const uint32_t* values, size_t n,
                            uint64_t stride, uint32_t* slots) {
  const uint32_t s = static_cast<uint32_t>(stride);
  for (size_t i = 0; i < n; ++i) {
    slots[i] += values[i] * s;
  }
}

GroupKeyIndex::GroupKeyIndex(size_t arity) : arity_(arity) {
  Rehash(64);
}

uint64_t GroupKeyIndex::HashKey(const uint32_t* key) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < arity_; ++i) {
    h = (h ^ key[i]) * 0x100000001b3ULL;
  }
  // Finalize: open addressing needs the high bits mixed down.
  h ^= h >> 33;
  return h;
}

uint32_t GroupKeyIndex::SlotFor(const uint32_t* key) {
  if ((num_slots_ + 1) * 4 >= buckets_.size() * 3) {
    Rehash(buckets_.size() * 2);
  }
  size_t b = static_cast<size_t>(HashKey(key)) & mask_;
  while (true) {
    const uint32_t entry = buckets_[b];
    if (entry == 0) {
      const uint32_t slot = static_cast<uint32_t>(num_slots_++);
      keys_.insert(keys_.end(), key, key + arity_);
      buckets_[b] = slot + 1;
      return slot;
    }
    const uint32_t slot = entry - 1;
    if (arity_ == 0 ||
        std::memcmp(KeyAt(slot), key, arity_ * sizeof(uint32_t)) == 0) {
      return slot;
    }
    b = (b + 1) & mask_;
  }
}

void GroupKeyIndex::Rehash(size_t new_buckets) {
  buckets_.assign(new_buckets, 0);
  mask_ = new_buckets - 1;
  for (size_t slot = 0; slot < num_slots_; ++slot) {
    size_t b = static_cast<size_t>(HashKey(KeyAt(static_cast<uint32_t>(slot)))) &
               mask_;
    while (buckets_[b] != 0) b = (b + 1) & mask_;
    buckets_[b] = static_cast<uint32_t>(slot) + 1;
  }
}

}  // namespace scalewall::vec
