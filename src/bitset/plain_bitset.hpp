// Uncompressed bitsets. PlainBitset has two roles: (1) the random-access
// accumulator used during verification, where bits are set/cleared in
// arbitrary order (EWAH patching would be O(size) per write); (2) the
// reference implementation for differential-testing the EWAH codec.
// UnionAccumulator is the bound phases' OR-union of EWAH bitsets.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mio {

class Ewah;  // bitset/ewah.hpp

/// Growable uncompressed bitset over 64-bit words.
class PlainBitset {
 public:
  PlainBitset() = default;
  /// Creates a bitset with `bits` zero bits pre-allocated.
  explicit PlainBitset(std::size_t bits) { Resize(bits); }

  /// Grows (never shrinks) the logical size to at least `bits`.
  void Resize(std::size_t bits);

  /// Number of logical bits.
  std::size_t SizeInBits() const { return size_in_bits_; }

  /// Sets bit i (grows if needed).
  void Set(std::size_t i);
  /// Clears bit i (no-op past the end).
  void Clear(std::size_t i);
  /// Tests bit i (false past the end).
  bool Test(std::size_t i) const;

  /// Number of set bits.
  std::size_t Count() const;
  /// True iff no bit is set.
  bool Empty() const { return Count() == 0; }

  /// this |= other (grows to cover other).
  void OrWith(const PlainBitset& other);
  /// this &= other (bits past other's end become 0).
  void AndWith(const PlainBitset& other);
  /// this &= ~other.
  void AndNotWith(const PlainBitset& other);
  /// this ^= other (grows to cover other).
  void XorWith(const PlainBitset& other);

  /// Zeroes all bits, keeping capacity.
  void Reset();

  /// Overwrites 64-bit word `word_idx` wholesale (grows if needed). Bulk
  /// decode path: EWAH decompression writes whole words, not bits.
  void AssignWord(std::size_t word_idx, std::uint64_t value) {
    EnsureWord(word_idx);
    words_[word_idx] = value;
    size_in_bits_ = std::max(size_in_bits_, (word_idx + 1) * 64);
  }

  /// ORs `value` into 64-bit word `word_idx` (grows if needed): folds a
  /// compressed bitset in a word at a time (Ewah::ForEachWord).
  void OrWord(std::size_t word_idx, std::uint64_t value) {
    EnsureWord(word_idx);
    words_[word_idx] |= value;
    size_in_bits_ = std::max(size_in_bits_, (word_idx + 1) * 64);
  }

  /// Invokes f(index) for each set bit in ascending order.
  template <typename F>
  void ForEachSetBit(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        int bit = __builtin_ctzll(word);
        f(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Indices of set bits in ascending order.
  std::vector<std::size_t> SetBits() const;

  /// Heap bytes held by the word array.
  std::size_t MemoryUsageBytes() const { return words_.capacity() * 8; }

  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Logical equality: same set of set bits (sizes may differ).
  bool operator==(const PlainBitset& other) const;

 private:
  void EnsureWord(std::size_t word_idx);

  std::vector<std::uint64_t> words_;
  std::size_t size_in_bits_ = 0;
};

/// \brief OR-union of EWAH bitsets, accumulated uncompressed: the bound
/// phases' b(o_i) and every b_adj(c).
///
/// Add ORs a bitset's run and literal words straight into one reused word
/// array and records each word it turns non-zero, so Count and Clear cost
/// O(t) and ToEwah O(t log t) in the t words touched, never O(size / 64).
/// The array grows to the largest bitset added and never shrinks: reuse
/// one accumulator per thread across objects. EWAH stays the stored
/// format; ToEwah re-encodes the union.
class UnionAccumulator {
 public:
  /// this |= bits. True iff some bit was not set before.
  bool Add(const Ewah& bits);
  /// this |= other (folds per-thread accumulators together).
  bool Add(const UnionAccumulator& other);

  /// Number of set bits.
  std::size_t Count() const;

  /// Empties the union, keeping capacity.
  void Clear();

  /// The union as an exact-capacity Ewah whose buffer and SizeInBits equal
  /// those of an Ewah::Or fold over the bitsets added since Clear. Sorts
  /// the touched-word list in place.
  Ewah ToEwah();

 private:
  /// ORs `value` into word w; returns the bits it newly set.
  std::uint64_t OrWord(std::size_t w, std::uint64_t value) {
    const std::uint64_t old = words_[w];
    if (old == 0 && value != 0) {
      touched_.push_back(static_cast<std::uint32_t>(w));
    }
    words_[w] = old | value;
    return value & ~old;
  }
  void Grow(std::size_t bits) {
    const std::size_t words = (bits + 63) / 64;
    if (words > words_.size()) words_.resize(words, 0);
    size_in_bits_ = std::max(size_in_bits_, bits);
  }

  std::vector<std::uint64_t> words_;     ///< zero outside touched_
  std::vector<std::uint32_t> touched_;   ///< indices of non-zero words
  std::vector<std::uint64_t> encoded_;   ///< ToEwah's reused scratch
  std::size_t size_in_bits_ = 0;
};

}  // namespace mio
