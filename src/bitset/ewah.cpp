#include "bitset/ewah.hpp"

#include <algorithm>

namespace mio {

// ---------------------------------------------------------------------------
// Builder primitives
// ---------------------------------------------------------------------------

void Ewah::AddRunWords(bool bit, std::uint64_t count) {
  size_in_bits_ += count * 64;
  if (count > 0 && buffer_.empty()) NewMarker();
  while (count > 0) {
    std::uint64_t marker = buffer_[rlw_pos_];
    bool can_extend =
        LitCount(marker) == 0 && (RunLen(marker) == 0 || RunBit(marker) == bit);
    if (!can_extend) {
      NewMarker();
      marker = buffer_[rlw_pos_];
    }
    if (RunLen(buffer_[rlw_pos_]) == 0) SetRunBit(bit);
    std::uint64_t room = kMaxRunLen - RunLen(buffer_[rlw_pos_]);
    std::uint64_t add = std::min(count, room);
    SetRunLen(RunLen(buffer_[rlw_pos_]) + add);
    count -= add;
    if (count > 0) NewMarker();
  }
}

void Ewah::AddLiteralWordRaw(std::uint64_t w) {
  if (buffer_.empty() || LitCount(buffer_[rlw_pos_]) >= kMaxLitCount) {
    NewMarker();
  }
  SetLitCount(LitCount(buffer_[rlw_pos_]) + 1);
  buffer_.push_back(w);
  size_in_bits_ += 64;
}

void Ewah::AddLiteralWord(std::uint64_t w) {
  if (w == 0) {
    AddRunWords(false, 1);
  } else if (w == ~std::uint64_t(0)) {
    AddRunWords(true, 1);
  } else {
    AddLiteralWordRaw(w);
  }
}

Ewah Ewah::FromSortedIds(std::span<const std::uint32_t> ids,
                         std::vector<std::uint64_t>* scratch) {
  if (ids.empty()) return Ewah();
  Ewah enc(std::move(*scratch), 0, 0);
  enc.Reset();
  std::size_t next = 0;  // first word not yet emitted
  for (std::size_t k = 0; k < ids.size();) {
    const std::size_t w = ids[k] / 64;
    std::uint64_t word = 0;
    for (; k < ids.size() && ids[k] / 64 == w; ++k) {
      word |= std::uint64_t(1) << (ids[k] % 64);
    }
    if (w > next) enc.AddRunWords(false, w - next);
    // Set folds a completed all-ones word into a ones run when it moves
    // on to the next word, and leaves the last word a literal.
    if (k < ids.size()) {
      enc.AddLiteralWord(word);
    } else {
      enc.AddLiteralWordRaw(word);
    }
    next = w + 1;
  }
  Ewah out(std::vector<std::uint64_t>(enc.buffer_.begin(), enc.buffer_.end()),
           enc.rlw_pos_, static_cast<std::size_t>(ids.back()) + 1);
  *scratch = std::move(enc.buffer_);
  return out;
}

// ---------------------------------------------------------------------------
// Bit access
// ---------------------------------------------------------------------------

void Ewah::Set(std::size_t i) {
  std::size_t cur_words = WordCount();
  std::size_t target_word = i / 64;
  if (target_word >= cur_words) {
    // Append path: first fold a completed all-ones literal tail into a
    // ones run (incremental ascending sets fill words left to right, so
    // dense regions would otherwise stay uncompressed), then round the
    // logical size up to a word boundary, pad with zero words, and emit
    // the word holding bit i.
    if (!buffer_.empty() && LitCount(buffer_[rlw_pos_]) >= 1 &&
        buffer_.back() == ~std::uint64_t(0)) {
      SetLitCount(LitCount(buffer_[rlw_pos_]) - 1);
      buffer_.pop_back();
      size_in_bits_ -= 64;
      AddRunWords(true, 1);
    }
    size_in_bits_ = cur_words * 64;
    if (target_word > cur_words) {
      AddRunWords(false, target_word - cur_words);
    }
    AddLiteralWord(std::uint64_t(1) << (i % 64));
    size_in_bits_ = i + 1;
    return;
  }
  InPlaceSet(i);
  size_in_bits_ = std::max(size_in_bits_, i + 1);
}

void Ewah::InPlaceSet(std::size_t i) {
  std::size_t target_word = i / 64;
  std::uint64_t mask = std::uint64_t(1) << (i % 64);
  std::size_t pos = 0;
  std::size_t base = 0;  // first word index covered by the current block
  while (pos < buffer_.size()) {
    std::uint64_t m = buffer_[pos];
    std::uint64_t run_len = RunLen(m);
    if (target_word < base + run_len) {
      if (RunBit(m)) return;  // inside a run of ones: already set
      SlowSet(i);             // inside a zero run: structural patch
      return;
    }
    base += run_len;
    std::uint64_t lit = LitCount(m);
    if (target_word < base + lit) {
      buffer_[pos + 1 + (target_word - base)] |= mask;
      return;
    }
    base += lit;
    pos += 1 + lit;
  }
  SlowSet(i);  // defensive: logical size said the word exists
}

void Ewah::SlowSet(std::size_t i) {
  PlainBitset plain = ToPlain();
  plain.Set(i);
  std::size_t bits = std::max(size_in_bits_, i + 1);
  *this = FromPlain(plain);
  size_in_bits_ = bits;
}

bool Ewah::Test(std::size_t i) const {
  std::size_t target_word = i / 64;
  std::uint64_t mask = std::uint64_t(1) << (i % 64);
  std::size_t pos = 0;
  std::size_t base = 0;
  while (pos < buffer_.size()) {
    std::uint64_t m = buffer_[pos];
    std::uint64_t run_len = RunLen(m);
    if (target_word < base + run_len) return RunBit(m);
    base += run_len;
    std::uint64_t lit = LitCount(m);
    if (target_word < base + lit) {
      return (buffer_[pos + 1 + (target_word - base)] & mask) != 0;
    }
    base += lit;
    pos += 1 + lit;
  }
  return false;
}

std::size_t Ewah::Count() const {
  std::size_t count = 0;
  std::size_t pos = 0;
  while (pos < buffer_.size()) {
    std::uint64_t m = buffer_[pos];
    if (RunBit(m)) count += RunLen(m) * 64;
    std::uint64_t lit = LitCount(m);
    for (std::uint64_t l = 0; l < lit; ++l) {
      count += __builtin_popcountll(buffer_[pos + 1 + l]);
    }
    pos += 1 + lit;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

PlainBitset Ewah::ToPlain() const {
  PlainBitset out(size_in_bits_);
  ForEachSetBit([&](std::size_t i) { out.Set(i); });
  return out;
}

void Ewah::DecodeInto(PlainBitset* out) const {
  out->Reset();
  out->Resize(size_in_bits_);
  // Word-wise decode: runs of ones fill whole words, literals copy.
  std::size_t pos = 0;
  std::size_t word = 0;
  while (pos < buffer_.size()) {
    std::uint64_t m = buffer_[pos];
    std::uint64_t run_len = RunLen(m);
    if (RunBit(m)) {
      for (std::uint64_t w = 0; w < run_len; ++w) {
        out->AssignWord(word + w, ~std::uint64_t(0));
      }
    }
    word += run_len;
    std::uint64_t lit = LitCount(m);
    for (std::uint64_t l = 0; l < lit; ++l) {
      out->AssignWord(word + l, buffer_[pos + 1 + l]);
    }
    word += lit;
    pos += 1 + lit;
  }
}

Ewah Ewah::FromPlain(const PlainBitset& plain) {
  Ewah out;
  for (std::uint64_t w : plain.words()) out.AddLiteralWord(w);
  out.size_in_bits_ = plain.SizeInBits();
  return out;
}

bool Ewah::operator==(const Ewah& other) const {
  return ToPlain() == other.ToPlain();
}

// ---------------------------------------------------------------------------
// Logical operations
// ---------------------------------------------------------------------------

/// Streams the logical words of an Ewah buffer, exposing run-level bulk
/// access so run/run regions are combined without materialisation. Once
/// the buffer is exhausted it yields an infinite zero run, which lets the
/// binary-op loop treat operands of different logical size uniformly.
class Ewah::WordSource {
 public:
  explicit WordSource(const std::vector<std::uint64_t>& buf) : buf_(buf) {
    Normalize();
  }

  /// True if the current position is inside a run (always true once
  /// exhausted, as an endless zero run).
  bool InRun() {
    Normalize();
    return run_rem_ > 0;
  }

  std::uint64_t RunAvail() const { return run_rem_; }
  std::uint64_t RunWord() const {
    return run_bit_ ? ~std::uint64_t(0) : std::uint64_t(0);
  }
  void ConsumeRun(std::uint64_t t) { run_rem_ -= t; }

  /// Consumes and returns one logical word (run or literal).
  std::uint64_t NextWord() {
    Normalize();
    if (run_rem_ > 0) {
      --run_rem_;
      return RunWord();
    }
    --lit_rem_;
    return buf_[lit_pos_++];
  }

 private:
  void Normalize() {
    while (!exhausted_ && run_rem_ == 0 && lit_rem_ == 0) {
      if (pos_ >= buf_.size()) {
        exhausted_ = true;
        break;
      }
      std::uint64_t m = buf_[pos_];
      run_bit_ = RunBit(m);
      run_rem_ = RunLen(m);
      lit_rem_ = LitCount(m);
      lit_pos_ = pos_ + 1;
      pos_ += 1 + LitCount(m);
    }
    if (exhausted_ && run_rem_ == 0) {
      run_bit_ = false;
      run_rem_ = ~std::uint64_t(0);  // endless zero run
    }
  }

  const std::vector<std::uint64_t>& buf_;
  std::size_t pos_ = 0;
  bool run_bit_ = false;
  std::uint64_t run_rem_ = 0;
  std::size_t lit_pos_ = 0;
  std::uint64_t lit_rem_ = 0;
  bool exhausted_ = false;
};

template <typename Op>
Ewah Ewah::BinaryOp(const Ewah& a, const Ewah& b, Op op) {
  Ewah out;
  std::uint64_t total = std::max(a.WordCount(), b.WordCount());
  WordSource sa(a.buffer_);
  WordSource sb(b.buffer_);
  std::uint64_t done = 0;
  while (done < total) {
    if (sa.InRun() && sb.InRun()) {
      std::uint64_t t =
          std::min({sa.RunAvail(), sb.RunAvail(), total - done});
      std::uint64_t w = op(sa.RunWord(), sb.RunWord());
      out.AddRunWords(w != 0, t);
      sa.ConsumeRun(t);
      sb.ConsumeRun(t);
      done += t;
    } else {
      out.AddLiteralWord(op(sa.NextWord(), sb.NextWord()));
      ++done;
    }
  }
  out.size_in_bits_ = std::max(a.size_in_bits_, b.size_in_bits_);
  return out;
}

Ewah Ewah::Or(const Ewah& a, const Ewah& b) {
  return BinaryOp(a, b,
                  [](std::uint64_t x, std::uint64_t y) { return x | y; });
}

Ewah Ewah::And(const Ewah& a, const Ewah& b) {
  return BinaryOp(a, b,
                  [](std::uint64_t x, std::uint64_t y) { return x & y; });
}

Ewah Ewah::AndNot(const Ewah& a, const Ewah& b) {
  return BinaryOp(a, b,
                  [](std::uint64_t x, std::uint64_t y) { return x & ~y; });
}

Ewah Ewah::Xor(const Ewah& a, const Ewah& b) {
  return BinaryOp(a, b,
                  [](std::uint64_t x, std::uint64_t y) { return x ^ y; });
}

}  // namespace mio
