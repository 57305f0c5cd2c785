// Group-by slot computation for the vectorized aggregation kernels.
//
// A chunk's surviving rows are mapped to dense *slots* — small integers
// indexing a flat array of aggregation states — in one of two ways:
//
//  * DirectLayout: when the product of the group columns' cardinalities
//    is small, the slot is the mixed-radix number of the group values
//    (one multiply-add per column, no hashing, no key storage);
//  * GroupKeyIndex: otherwise, an open-addressing hash table assigns
//    slots in first-seen order and stores the flat keys for decode.
//
// Both produce a bijection slot <-> group key, so flushing slots in key
// order into a result reconstructs exactly the interpreter's group set.

#ifndef SCALEWALL_VEC_GROUP_H_
#define SCALEWALL_VEC_GROUP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace scalewall::vec {

// Mixed-radix layout over group columns with known cardinalities.
struct DirectLayout {
  // Per-column multiplier; slot = sum_i value_i * stride[i]. Built so
  // the *last* column is the least-significant digit, matching the
  // lexicographic order of group keys.
  std::vector<uint64_t> strides;
  std::vector<uint32_t> cards;
  uint64_t total_slots = 1;

  // Builds the layout; returns false (leaving the layout unusable) when
  // the slot space would exceed `max_slots`.
  bool Build(const std::vector<uint32_t>& cardinalities, uint64_t max_slots);

  // Reconstructs the group values for `slot` into `key` (sized to arity).
  void DecodeSlot(uint64_t slot, uint32_t* key) const {
    for (size_t i = 0; i < strides.size(); ++i) {
      key[i] = static_cast<uint32_t>((slot / strides[i]) % cards[i]);
    }
  }
};

// Accumulates `col[rows[i]] * stride` into slots[i] for every selected
// row (one group column's contribution to the mixed-radix slot).
void SlotAccumulate(const uint32_t* col, const uint32_t* rows, size_t n,
                    uint64_t stride, uint32_t* slots);

// Same over a dense row range [begin, begin + n) with no selection.
void SlotAccumulateDense(const uint32_t* col, uint32_t begin, size_t n,
                         uint64_t stride, uint32_t* slots);

// Variants over already-gathered value arrays (join attributes): values
// are aligned with the selection, not indexed through it.
void SlotAccumulateGathered(const uint32_t* values, size_t n,
                            uint64_t stride, uint32_t* slots);

// Open-addressing map from flat group keys (arity uint32s) to dense
// slot ids assigned in first-seen order.
class GroupKeyIndex {
 public:
  explicit GroupKeyIndex(size_t arity);

  // Returns the slot for `key` (arity values), inserting if new.
  uint32_t SlotFor(const uint32_t* key);

  size_t num_slots() const { return num_slots_; }
  size_t arity() const { return arity_; }
  // Flat key stored for `slot` (arity values).
  const uint32_t* KeyAt(uint32_t slot) const {
    return keys_.data() + static_cast<size_t>(slot) * arity_;
  }

 private:
  void Rehash(size_t new_buckets);
  uint64_t HashKey(const uint32_t* key) const;

  size_t arity_;
  size_t num_slots_ = 0;
  std::vector<uint32_t> keys_;     // num_slots_ * arity_ values
  std::vector<uint32_t> buckets_;  // slot + 1, 0 = empty; power-of-two
  size_t mask_ = 0;
};

}  // namespace scalewall::vec

#endif  // SCALEWALL_VEC_GROUP_H_
