// Open-addressing hash map with linear probing, used for the BIGrid cell
// tables. Cells are interned during grid mapping and never erased, which
// this layout exploits: contiguous slot storage and no per-node
// allocation. A probe reads two arrays, the occupancy bytes (`states_`)
// and the key/value slots (`slots_`).
//
// Constraints (checked by usage, not the type system):
//  * no erase;
//  * references returned by operator[]/Find are invalidated by the next
//    insert that triggers a rehash — do not hold them across inserts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mio {

/// Insert-only flat hash map. K must be trivially comparable; V movable.
template <typename K, typename V, typename Hash>
class FlatHashMap {
 public:
  FlatHashMap() { Rehash(kInitialCapacity); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes for `n` elements without rehashing during inserts.
  void Reserve(std::size_t n) {
    std::size_t needed = NextPow2(n * 10 / 7 + 1);
    if (needed > slots_.size()) Rehash(needed);
  }

  /// Returns the value for `key`, default-constructing it when absent.
  V& operator[](const K& key) {
    if ((size_ + 1) * 10 >= slots_.size() * 7) Rehash(slots_.size() * 2);
    std::size_t idx = ProbeFor(key, slots_, states_);
    if (states_[idx] == kEmpty) {
      states_[idx] = kFull;
      slots_[idx].first = key;
      ++size_;
    }
    return slots_[idx].second;
  }

  /// Pointer to the value for `key`, or nullptr.
  V* Find(const K& key) {
    std::size_t idx = ProbeFor(key, slots_, states_);
    return states_[idx] == kFull ? &slots_[idx].second : nullptr;
  }
  const V* Find(const K& key) const {
    std::size_t idx = ProbeFor(key, slots_, states_);
    return states_[idx] == kFull ? &slots_[idx].second : nullptr;
  }

  bool Contains(const K& key) const { return Find(key) != nullptr; }

  /// Invokes f(key, value) for every element (unspecified order).
  template <typename F>
  void ForEach(F&& f) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (states_[i] == kFull) f(slots_[i].first, slots_[i].second);
    }
  }
  template <typename F>
  void ForEach(F&& f) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (states_[i] == kFull) f(slots_[i].first, slots_[i].second);
    }
  }

  /// Heap bytes of the table itself (not of heap-owning values).
  std::size_t TableBytes() const {
    return slots_.capacity() * sizeof(std::pair<K, V>) + states_.capacity();
  }

 private:
  static constexpr std::size_t kInitialCapacity = 16;
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 1;

  static std::size_t NextPow2(std::size_t n) {
    std::size_t p = kInitialCapacity;
    while (p < n) p <<= 1;
    return p;
  }

  std::size_t ProbeFor(const K& key,
                       const std::vector<std::pair<K, V>>& slots,
                       const std::vector<std::uint8_t>& states) const {
    std::size_t mask = slots.size() - 1;
    std::size_t idx = Hash{}(key) & mask;
    while (states[idx] == kFull && !(slots[idx].first == key)) {
      idx = (idx + 1) & mask;
    }
    return idx;
  }

  void Rehash(std::size_t new_capacity) {
    std::vector<std::pair<K, V>> new_slots(new_capacity);
    std::vector<std::uint8_t> new_states(new_capacity, kEmpty);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (states_[i] != kFull) continue;
      std::size_t idx = ProbeFor(slots_[i].first, new_slots, new_states);
      new_states[idx] = kFull;
      new_slots[idx] = std::move(slots_[i]);
    }
    slots_ = std::move(new_slots);
    states_ = std::move(new_states);
  }

  std::vector<std::pair<K, V>> slots_;
  std::vector<std::uint8_t> states_;
  std::size_t size_ = 0;
};

}  // namespace mio
