#include "bitset/plain_bitset.hpp"

#include <algorithm>

#include "bitset/ewah.hpp"

namespace mio {

void PlainBitset::Resize(std::size_t bits) {
  if (bits <= size_in_bits_) return;
  size_in_bits_ = bits;
  words_.resize((bits + 63) / 64, 0);
}

void PlainBitset::EnsureWord(std::size_t word_idx) {
  if (word_idx >= words_.size()) {
    words_.resize(word_idx + 1, 0);
  }
}

void PlainBitset::Set(std::size_t i) {
  EnsureWord(i / 64);
  words_[i / 64] |= (std::uint64_t(1) << (i % 64));
  size_in_bits_ = std::max(size_in_bits_, i + 1);
}

void PlainBitset::Clear(std::size_t i) {
  if (i / 64 >= words_.size()) return;
  words_[i / 64] &= ~(std::uint64_t(1) << (i % 64));
}

bool PlainBitset::Test(std::size_t i) const {
  if (i / 64 >= words_.size()) return false;
  return (words_[i / 64] >> (i % 64)) & 1u;
}

std::size_t PlainBitset::Count() const {
  std::size_t c = 0;
  for (std::uint64_t w : words_) c += __builtin_popcountll(w);
  return c;
}

void PlainBitset::OrWith(const PlainBitset& other) {
  if (other.words_.size() > words_.size()) {
    words_.resize(other.words_.size(), 0);
    size_in_bits_ = std::max(size_in_bits_, other.size_in_bits_);
  }
  for (std::size_t i = 0; i < other.words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
}

void PlainBitset::AndWith(const PlainBitset& other) {
  std::size_t shared = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < shared; ++i) words_[i] &= other.words_[i];
  for (std::size_t i = shared; i < words_.size(); ++i) words_[i] = 0;
}

void PlainBitset::AndNotWith(const PlainBitset& other) {
  std::size_t shared = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < shared; ++i) words_[i] &= ~other.words_[i];
}

void PlainBitset::XorWith(const PlainBitset& other) {
  if (other.words_.size() > words_.size()) {
    words_.resize(other.words_.size(), 0);
    size_in_bits_ = std::max(size_in_bits_, other.size_in_bits_);
  }
  for (std::size_t i = 0; i < other.words_.size(); ++i) {
    words_[i] ^= other.words_[i];
  }
}

void PlainBitset::Reset() {
  std::fill(words_.begin(), words_.end(), 0);
}

std::vector<std::size_t> PlainBitset::SetBits() const {
  std::vector<std::size_t> out;
  out.reserve(Count());
  ForEachSetBit([&](std::size_t i) { out.push_back(i); });
  return out;
}

bool PlainBitset::operator==(const PlainBitset& other) const {
  std::size_t shared = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < shared; ++i) {
    if (words_[i] != other.words_[i]) return false;
  }
  for (std::size_t i = shared; i < words_.size(); ++i) {
    if (words_[i] != 0) return false;
  }
  for (std::size_t i = shared; i < other.words_.size(); ++i) {
    if (other.words_[i] != 0) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// UnionAccumulator
// ---------------------------------------------------------------------------

bool UnionAccumulator::Add(const Ewah& bits) {
  Grow(bits.SizeInBits());
  std::uint64_t fresh = 0;
  bits.ForEachWord([&](std::size_t w, std::uint64_t word) {
    fresh |= OrWord(w, word);
    return true;
  });
  return fresh != 0;
}

bool UnionAccumulator::Add(const UnionAccumulator& other) {
  Grow(other.size_in_bits_);
  std::uint64_t fresh = 0;
  for (std::uint32_t w : other.touched_) fresh |= OrWord(w, other.words_[w]);
  return fresh != 0;
}

std::size_t UnionAccumulator::Count() const {
  std::size_t count = 0;
  for (std::uint32_t w : touched_) count += __builtin_popcountll(words_[w]);
  return count;
}

void UnionAccumulator::Clear() {
  for (std::uint32_t w : touched_) words_[w] = 0;
  touched_.clear();
  size_in_bits_ = 0;
}

Ewah UnionAccumulator::ToEwah() {
  // Emit the words in ascending order through the Ewah builders, as
  // Ewah::Or does: the encoding is a function of the word sequence alone,
  // so the buffer is the fold's. It is built in the reused scratch and
  // copied out at its exact size.
  std::sort(touched_.begin(), touched_.end());
  Ewah enc(std::move(encoded_), 0, 0);
  enc.Reset();
  std::size_t next = 0;  // first word not yet emitted
  for (std::uint32_t w : touched_) {
    if (w > next) enc.AddRunWords(false, w - next);
    enc.AddLiteralWord(words_[w]);
    next = w + 1;
  }
  const std::size_t total = (size_in_bits_ + 63) / 64;
  if (total > next) enc.AddRunWords(false, total - next);
  Ewah out(std::vector<std::uint64_t>(enc.buffer_.begin(), enc.buffer_.end()),
           enc.rlw_pos_, size_in_bits_);
  encoded_ = std::move(enc.buffer_);
  return out;
}

}  // namespace mio
