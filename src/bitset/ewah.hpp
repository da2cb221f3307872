// 64-bit EWAH (Enhanced Word-Aligned Hybrid) compressed bitset,
// implemented from scratch after Lemire, Kaser & Aouiche, "Sorting
// improves word-aligned bitmap indexes" (DKE 2010) — the codec the paper
// uses for every BIGrid cell bitset (paper §III-A, footnote 3).
//
// Encoding: the buffer is a sequence of blocks. Each block starts with a
// 64-bit marker word:
//   bit  0      : the "running bit" (value of the run)
//   bits 1..32  : run length, in 64-bit words (up to 2^32-1)
//   bits 33..63 : number of literal (verbatim) words following the marker
// Runs compress all-zero stretches (sparse space) and all-one stretches
// (dense space); literal words hold everything else verbatim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "bitset/plain_bitset.hpp"

namespace mio {

/// \brief Append-friendly compressed bitset with word-aligned logical ops.
///
/// Bits must normally be Set() in non-decreasing index order (the BIGrid
/// build satisfies this: object ids arrive ascending). Setting a bit that
/// falls inside an already-emitted zero run triggers a transparent
/// decompress-patch-recompress slow path, so arbitrary writes stay correct,
/// just not fast — random-write-heavy code should use PlainBitset and
/// convert at the boundary.
class Ewah {
 public:
  Ewah() { buffer_.push_back(0); }

  /// Sets bit i to 1. Amortised O(1) for non-decreasing i; O(size) when
  /// patching inside an earlier zero run.
  void Set(std::size_t i);

  /// Tests bit i. O(number of markers).
  bool Test(std::size_t i) const;

  /// Number of set bits. O(compressed size).
  std::size_t Count() const;

  /// True iff no bit is set.
  bool Empty() const { return Count() == 0; }

  /// Number of logical bits represented.
  std::size_t SizeInBits() const { return size_in_bits_; }

  /// Number of logical 64-bit words represented.
  std::size_t WordCount() const { return (size_in_bits_ + 63) / 64; }

  /// Compressed buffer footprint in bytes.
  std::size_t CompressedBytes() const { return buffer_.size() * 8; }
  /// Heap bytes actually held (capacity).
  std::size_t MemoryUsageBytes() const { return buffer_.capacity() * 8; }
  /// What an uncompressed bitset of the same logical size would occupy.
  std::size_t UncompressedBytes() const { return WordCount() * 8; }

  /// Removes all bits, keeping capacity.
  void Reset() {
    buffer_.clear();
    buffer_.push_back(0);
    rlw_pos_ = 0;
    size_in_bits_ = 0;
  }

  static Ewah Or(const Ewah& a, const Ewah& b);
  static Ewah And(const Ewah& a, const Ewah& b);
  /// a & ~b ("a minus b", the verification-step candidate subtraction).
  static Ewah AndNot(const Ewah& a, const Ewah& b);
  static Ewah Xor(const Ewah& a, const Ewah& b);

  /// Invokes f(index) for every set bit in ascending order.
  template <typename F>
  void ForEachSetBit(F&& f) const {
    std::size_t pos = 0;
    std::size_t base_bit = 0;
    while (pos < buffer_.size()) {
      std::uint64_t m = buffer_[pos];
      std::uint64_t run_len = RunLen(m);
      if (RunBit(m)) {
        for (std::uint64_t w = 0; w < run_len; ++w) {
          for (int b = 0; b < 64; ++b) f(base_bit + w * 64 + b);
        }
      }
      base_bit += run_len * 64;
      std::uint64_t lit = LitCount(m);
      for (std::uint64_t l = 0; l < lit; ++l) {
        std::uint64_t word = buffer_[pos + 1 + l];
        while (word != 0) {
          int b = __builtin_ctzll(word);
          f(base_bit + l * 64 + static_cast<std::size_t>(b));
          word &= word - 1;
        }
      }
      base_bit += lit * 64;
      pos += 1 + lit;
    }
  }

  /// Word iterator: invokes f(word_index, word) for every logical word
  /// outside a zero run, in ascending order — each literal word verbatim
  /// (AddLiteralWord folds all-zero words into runs) and each word of a
  /// ones run as ~0. A zero run costs one step whatever its length. f
  /// returns false to stop early. UnionAccumulator ORs a bitset in this
  /// way, and verification ANDs a cell's bitset with a decoded candidate
  /// set, a word at a time.
  template <typename F>
  void ForEachWord(F&& f) const {
    std::size_t pos = 0;
    std::size_t word = 0;
    while (pos < buffer_.size()) {
      std::uint64_t m = buffer_[pos];
      std::uint64_t run_len = RunLen(m);
      if (RunBit(m)) {
        for (std::uint64_t w = 0; w < run_len; ++w) {
          if (!f(word + w, ~std::uint64_t(0))) return;
        }
      }
      word += run_len;
      std::uint64_t lit = LitCount(m);
      for (std::uint64_t l = 0; l < lit; ++l) {
        if (!f(word + l, buffer_[pos + 1 + l])) return;
      }
      word += lit;
      pos += 1 + lit;
    }
  }

  /// Decompresses to an uncompressed bitset.
  PlainBitset ToPlain() const;
  /// Decompresses into an existing bitset (cleared first), reusing its
  /// capacity — the allocation-free variant for hot-path scratch reuse.
  void DecodeInto(PlainBitset* out) const;
  /// Compresses an uncompressed bitset.
  static Ewah FromPlain(const PlainBitset& plain);

  /// Logical equality (same set bits).
  bool operator==(const Ewah& other) const;

  /// Appends `count` words of all-`bit` (used by codec + bulk builders).
  void AddRunWords(bool bit, std::uint64_t count);
  /// Appends one 64-bit word, compressing all-zero / all-one words.
  void AddLiteralWord(std::uint64_t w);

  const std::vector<std::uint64_t>& buffer() const { return buffer_; }

 private:
  friend class UnionAccumulator;  // encodes its union in place

  Ewah(std::vector<std::uint64_t> buffer, std::size_t rlw_pos,
       std::size_t size_in_bits)
      : buffer_(std::move(buffer)),
        rlw_pos_(rlw_pos),
        size_in_bits_(size_in_bits) {}

  static constexpr std::uint64_t kMaxRunLen = 0xFFFFFFFFull;
  static constexpr std::uint64_t kMaxLitCount = 0x7FFFFFFFull;

  static bool RunBit(std::uint64_t marker) { return marker & 1u; }
  static std::uint64_t RunLen(std::uint64_t marker) {
    return (marker >> 1) & 0xFFFFFFFFull;
  }
  static std::uint64_t LitCount(std::uint64_t marker) { return marker >> 33; }

  void SetRunBit(bool bit) {
    if (bit) {
      buffer_[rlw_pos_] |= 1u;
    } else {
      buffer_[rlw_pos_] &= ~std::uint64_t(1);
    }
  }
  void SetRunLen(std::uint64_t len) {
    buffer_[rlw_pos_] =
        (buffer_[rlw_pos_] & ~(0xFFFFFFFFull << 1)) | (len << 1);
  }
  void SetLitCount(std::uint64_t cnt) {
    buffer_[rlw_pos_] = (buffer_[rlw_pos_] & ((1ull << 33) - 1)) | (cnt << 33);
  }

  void NewMarker() {
    buffer_.push_back(0);
    rlw_pos_ = buffer_.size() - 1;
  }

  void AddLiteralWordRaw(std::uint64_t w);
  /// Set-bit slow path: decompress, patch, recompress.
  void SlowSet(std::size_t i);
  /// Set inside already-represented words (last-word fast path or SlowSet).
  void InPlaceSet(std::size_t i);

  template <typename Op>
  static Ewah BinaryOp(const Ewah& a, const Ewah& b, Op op);

  class WordSource;

  std::vector<std::uint64_t> buffer_;
  std::size_t rlw_pos_ = 0;
  std::size_t size_in_bits_ = 0;
};

}  // namespace mio
