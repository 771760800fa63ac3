// Allocation-light key index for the keyed operators (shuffle aggregation,
// co-partitioned joins and co-groups).
//
// The index maps a key to a dense row number; the rows themselves (and so the
// keys) live in the caller's own vector, which keeps them contiguous and in
// first-seen order. The table is open addressing with linear probing over a
// power-of-two array of uint32_t row numbers, grown at a load factor of 0.5.
#ifndef SRC_DATAFLOW_FLAT_KEY_INDEX_H_
#define SRC_DATAFLOW_FLAT_KEY_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace blaze {

// splitmix-style finalizer over std::hash for better bit diffusion: the one
// key hash behind both partitioning (KeyPartition) and FlatKeyIndex.
template <typename K>
uint64_t KeyHash(const K& key) {
  uint64_t h = std::hash<K>{}(key);
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

template <typename K>
class FlatKeyIndex {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  // Sizes the table so `expected_keys` distinct keys fit without growing.
  explicit FlatKeyIndex(size_t expected_keys = 0) { Reset(SlotsFor(expected_keys)); }

  // Number of distinct keys indexed; rows are numbered [0, size()).
  uint32_t size() const { return size_; }

  // The row holding `key`, or kNone. `key_of(row)` returns that row's key.
  template <typename KeyOf>
  uint32_t Find(const K& key, KeyOf&& key_of) const {
    for (size_t slot = SlotOf(key);; slot = (slot + 1) & mask_) {
      const uint32_t row = slots_[slot];
      if (row == kNone || key_of(row) == key) {
        return row;
      }
    }
  }

  // The row holding `key` and false; if absent, numbers it row size() and
  // returns that and true — the caller then appends the row, so key_of(size()
  // - 1) is valid before the next call. key_of is only asked for earlier rows.
  template <typename KeyOf>
  std::pair<uint32_t, bool> Insert(const K& key, KeyOf&& key_of) {
    if (2 * (static_cast<size_t>(size_) + 1) > slots_.size()) {
      Grow(key_of);
    }
    size_t slot = SlotOf(key);
    for (;; slot = (slot + 1) & mask_) {
      const uint32_t row = slots_[slot];
      if (row == kNone) {
        break;
      }
      if (key_of(row) == key) {
        return {row, false};
      }
    }
    BLAZE_CHECK_LT(size_, kNone) << "FlatKeyIndex row numbers exhausted";
    slots_[slot] = size_;
    return {size_++, true};
  }

 private:
  static constexpr size_t kMinSlots = 16;

  // Smallest power of two holding `keys` at load factor 0.5.
  static size_t SlotsFor(size_t keys) {
    return std::max(kMinSlots, std::bit_ceil(2 * keys));
  }

  void Reset(size_t num_slots) {
    slots_.assign(num_slots, kNone);
    mask_ = num_slots - 1;
    shift_ = 64 - std::countr_zero(num_slots);
  }

  // The hash's top bits pick the slot: KeyPartition takes the hash modulo the
  // partition count, so within one partition the low bits are far from
  // uniform (all equal for a power-of-two count).
  size_t SlotOf(const K& key) const { return static_cast<size_t>(KeyHash(key) >> shift_); }

  template <typename KeyOf>
  void Grow(KeyOf& key_of) {
    Reset(2 * slots_.size());
    for (uint32_t row = 0; row < size_; ++row) {
      size_t slot = SlotOf(key_of(row));
      while (slots_[slot] != kNone) {
        slot = (slot + 1) & mask_;
      }
      slots_[slot] = row;
    }
  }

  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  int shift_ = 0;
  uint32_t size_ = 0;
};

}  // namespace blaze

#endif  // SRC_DATAFLOW_FLAT_KEY_INDEX_H_
