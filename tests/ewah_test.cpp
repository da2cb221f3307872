// Differential tests of the EWAH codec against PlainBitset, plus
// compression-behaviour checks (runs of zeros/ones must compress).
#include "bitset/ewah.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>
#include <vector>

#include "bitset/bitset_stats.hpp"
#include "bitset/plain_bitset.hpp"
#include "common/random.hpp"

namespace mio {
namespace {

TEST(EwahTest, StartsEmpty) {
  Ewah b;
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(b.Empty());
  EXPECT_EQ(b.SizeInBits(), 0u);
  EXPECT_FALSE(b.Test(0));
  EXPECT_FALSE(b.Test(12345));
}

TEST(EwahTest, AscendingSetAndTest) {
  Ewah b;
  std::vector<std::size_t> idx = {0, 1, 63, 64, 65, 200, 1000, 100000};
  for (std::size_t i : idx) b.Set(i);
  for (std::size_t i : idx) EXPECT_TRUE(b.Test(i)) << i;
  EXPECT_FALSE(b.Test(2));
  EXPECT_FALSE(b.Test(999));
  EXPECT_FALSE(b.Test(100001));
  EXPECT_EQ(b.Count(), idx.size());
  EXPECT_EQ(b.SizeInBits(), 100001u);
}

TEST(EwahTest, SetIsIdempotent) {
  Ewah b;
  b.Set(100);
  b.Set(100);
  b.Set(100);
  EXPECT_EQ(b.Count(), 1u);
}

TEST(EwahTest, SparseBitsetCompresses) {
  Ewah b;
  b.Set(0);
  b.Set(1000000);  // ~15 KiB of zero run in between
  EXPECT_LT(b.CompressedBytes(), 100u);
  EXPECT_GT(b.UncompressedBytes(), 100000u);
}

TEST(EwahTest, DenseRunCompresses) {
  // 64k consecutive ones: the word-aligned interior must fold into a run.
  Ewah b;
  for (std::size_t i = 0; i < 65536; ++i) b.Set(i);
  EXPECT_EQ(b.Count(), 65536u);
  EXPECT_LT(b.CompressedBytes(), 64u);
}

TEST(EwahTest, OutOfOrderSetUsesSlowPathCorrectly) {
  Ewah b;
  b.Set(10000);  // creates a long zero run
  b.Set(5);      // patches inside the run (decompress-recompress path)
  b.Set(7000);
  EXPECT_TRUE(b.Test(5));
  EXPECT_TRUE(b.Test(7000));
  EXPECT_TRUE(b.Test(10000));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(EwahTest, InPlaceSetIntoLiteralWord) {
  Ewah b;
  b.Set(3);
  b.Set(10);  // same word: literal or-in, no structure change
  EXPECT_TRUE(b.Test(3));
  EXPECT_TRUE(b.Test(10));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(EwahTest, SetInsideRunOfOnesIsNoop) {
  Ewah b;
  for (std::size_t i = 0; i < 200; ++i) b.Set(i);
  std::size_t bytes = b.CompressedBytes();
  b.Set(64);  // inside the ones run
  EXPECT_EQ(b.CompressedBytes(), bytes);
  EXPECT_EQ(b.Count(), 200u);
}

TEST(EwahTest, PlainRoundTrip) {
  Pcg32 rng(11);
  PlainBitset plain;
  for (int i = 0; i < 500; ++i) plain.Set(rng.NextBounded(10000));
  Ewah compressed = Ewah::FromPlain(plain);
  EXPECT_EQ(compressed.Count(), plain.Count());
  EXPECT_TRUE(compressed.ToPlain() == plain);
}

TEST(EwahTest, ForEachSetBitMatchesPlain) {
  Pcg32 rng(13);
  Ewah b;
  PlainBitset ref;
  std::size_t last = 0;
  for (int i = 0; i < 300; ++i) {
    last += 1 + rng.NextBounded(500);
    b.Set(last);
    ref.Set(last);
  }
  std::vector<std::size_t> got;
  b.ForEachSetBit([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, ref.SetBits());
}

// --- word iterator, differential against DecodeInto -----------------------

/// Rebuilds a bitset from ForEachWord's words, checking on the way that
/// word indices strictly ascend and no zero word is yielded.
PlainBitset FromWords(const Ewah& e) {
  PlainBitset out;
  bool first = true;
  std::size_t prev = 0;
  e.ForEachWord([&](std::size_t w, std::uint64_t word) {
    EXPECT_TRUE(first || w > prev) << w;
    EXPECT_NE(word, 0u) << w;
    first = false;
    prev = w;
    out.AssignWord(w, word);
    return true;
  });
  return out;
}

PlainBitset Decoded(const Ewah& e) {
  PlainBitset out;
  e.DecodeInto(&out);
  return out;
}

TEST(EwahWordIteratorTest, EmptySetYieldsNoWord) {
  Ewah empty;
  std::size_t calls = 0;
  empty.ForEachWord([&](std::size_t, std::uint64_t) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 0u);
  Ewah cleared;
  cleared.Set(5000);
  cleared.Reset();
  cleared.ForEachWord([&](std::size_t, std::uint64_t) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 0u);
}

TEST(EwahWordIteratorTest, LiteralsAndZeroRunsMatchDecode) {
  Ewah b;
  // Literals separated by zero runs of 0, 1 and many words.
  for (std::size_t i : {1u, 3u, 64u, 130u, 131u, 640u, 100000u, 100063u}) {
    b.Set(i);
  }
  EXPECT_TRUE(FromWords(b) == Decoded(b));
  std::vector<std::size_t> words;
  b.ForEachWord([&](std::size_t w, std::uint64_t) {
    words.push_back(w);
    return true;
  });
  EXPECT_EQ(words, (std::vector<std::size_t>{0, 1, 2, 10, 1562, 1563}));
}

TEST(EwahWordIteratorTest, OnesRunsYieldEveryWord) {
  Ewah b;
  b.Set(7);
  for (std::size_t i = 128; i < 128 + 64 * 5; ++i) b.Set(i);  // 5 full words
  b.Set(1000);
  ASSERT_TRUE(FromWords(b) == Decoded(b));
  std::size_t ones = 0;
  b.ForEachWord([&](std::size_t w, std::uint64_t word) {
    if (word == ~std::uint64_t(0)) {
      EXPECT_GE(w, 2u);
      EXPECT_LE(w, 6u);
      ++ones;
    }
    return true;
  });
  EXPECT_EQ(ones, 5u);
  // A run produced by an op rather than by Set: the union of two
  // complementary halves is all ones.
  PlainBitset evens, odds;
  for (std::size_t i = 0; i < 64 * 40; ++i) (i % 2 == 0 ? evens : odds).Set(i);
  Ewah all = Ewah::Or(Ewah::FromPlain(evens), Ewah::FromPlain(odds));
  EXPECT_TRUE(FromWords(all) == Decoded(all));
  EXPECT_EQ(FromWords(all).Count(), 64u * 40);
}

TEST(EwahWordIteratorTest, RandomSetsMatchDecode) {
  Pcg32 rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    PlainBitset plain;
    const std::size_t universe = 64 + rng.NextBounded(20000);
    // Mix sparse bits with dense stretches, so runs of both kinds occur.
    for (int i = 0; i < 200; ++i) plain.Set(rng.NextBounded(universe));
    std::size_t start = rng.NextBounded(universe);
    for (std::size_t i = start; i < start + rng.NextBounded(1000); ++i) {
      plain.Set(i);
    }
    Ewah e = Ewah::FromPlain(plain);
    EXPECT_TRUE(FromWords(e) == Decoded(e)) << "trial " << trial;
    EXPECT_TRUE(FromWords(e) == plain) << "trial " << trial;
  }
}

TEST(EwahWordIteratorTest, FalseStopsTheWalk) {
  Ewah b;
  for (std::size_t i : {0u, 100u, 200u, 300u}) b.Set(i);
  std::vector<std::size_t> seen;
  b.ForEachWord([&](std::size_t w, std::uint64_t) {
    seen.push_back(w);
    return seen.size() < 2;
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1}));
}

TEST(EwahTest, ResetClears) {
  Ewah b;
  b.Set(100);
  b.Reset();
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_EQ(b.SizeInBits(), 0u);
  b.Set(3);
  EXPECT_EQ(b.Count(), 1u);
}

TEST(EwahTest, EqualityIsLogical) {
  Ewah a, b;
  a.Set(5);
  b.Set(5);
  b.Set(100000);  // differs
  EXPECT_FALSE(a == b);
  a.Set(100000);
  EXPECT_TRUE(a == b);
}

// --- the empty bitset: zero words, no heap block ----------------------------

/// The empty set of zero logical words: default-constructed, or Reset
/// after holding bits (which keeps the buffer's capacity).
Ewah MakeEmpty(bool reset) {
  Ewah e;
  if (reset) {
    for (std::size_t i : {3u, 64u, 5000u}) e.Set(i);
    e.Reset();
  }
  return e;
}

/// {5, 700}: a literal, a nine-word zero run, a literal.
Ewah FiveAndSevenHundred() {
  Ewah e;
  e.Set(5);
  e.Set(700);
  return e;
}

// Marker fields: literal count (bits 33..63), run length (bits 1..32),
// run bit (bit 0).
constexpr std::uint64_t kOneLiteral = std::uint64_t(1) << 33;
constexpr std::uint64_t RunWords(std::uint64_t words) { return words << 1; }

TEST(EwahEmptyTest, DefaultOwnsNoHeapBlock) {
  Ewah e;
  EXPECT_EQ(e.MemoryUsageBytes(), 0u);
  EXPECT_EQ(e.CompressedBytes(), 0u);
  EXPECT_TRUE(e.buffer().empty());
  Ewah reset = MakeEmpty(true);
  EXPECT_TRUE(reset.buffer().empty());
  EXPECT_EQ(reset.CompressedBytes(), 0u);
  EXPECT_EQ(reset.SizeInBits(), 0u);
}

TEST(EwahEmptyTest, ReadsSeeNoBit) {
  for (bool reset : {false, true}) {
    const Ewah e = MakeEmpty(reset);
    EXPECT_EQ(e.Count(), 0u);
    EXPECT_TRUE(e.Empty());
    EXPECT_FALSE(e.Test(0));
    EXPECT_FALSE(e.Test(64));
    EXPECT_EQ(e.SizeInBits(), 0u);
    EXPECT_EQ(e.WordCount(), 0u);
    EXPECT_EQ(e.UncompressedBytes(), 0u);
    std::size_t calls = 0;
    e.ForEachWord([&](std::size_t, std::uint64_t) {
      ++calls;
      return true;
    });
    e.ForEachSetBit([&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0u);
    PlainBitset decoded;
    decoded.Set(7);  // DecodeInto clears first, and never shrinks
    e.DecodeInto(&decoded);
    EXPECT_EQ(decoded.Count(), 0u);
    EXPECT_EQ(decoded.SizeInBits(), 8u);
    EXPECT_EQ(e.ToPlain().SizeInBits(), 0u);
    EXPECT_EQ(e.ToPlain().Count(), 0u);
    EXPECT_TRUE(e == Ewah());
    EXPECT_FALSE(e == FiveAndSevenHundred());
    // A zero run holds no bit either, so it equals the empty set.
    Ewah zeros;
    zeros.AddRunWords(false, 4);
    EXPECT_TRUE(e == zeros);
  }
}

TEST(EwahEmptyTest, BuildersOpenTheFirstMarker) {
  for (bool reset : {false, true}) {
    Ewah e = MakeEmpty(reset);
    e.Set(5);
    EXPECT_EQ(e.buffer(), (std::vector<std::uint64_t>{kOneLiteral, 1u << 5}));
    EXPECT_EQ(e.SizeInBits(), 6u);

    e = MakeEmpty(reset);
    e.Set(130);
    EXPECT_EQ(e.buffer(),
              (std::vector<std::uint64_t>{kOneLiteral | RunWords(2), 1u << 2}));
    EXPECT_EQ(e.SizeInBits(), 131u);

    e = MakeEmpty(reset);
    e.AddRunWords(true, 3);
    EXPECT_EQ(e.buffer(), (std::vector<std::uint64_t>{RunWords(3) | 1u}));
    EXPECT_EQ(e.SizeInBits(), 192u);
    EXPECT_EQ(e.Count(), 192u);

    e = MakeEmpty(reset);
    e.AddRunWords(false, 0);  // adds no word: still the empty set
    EXPECT_TRUE(e.buffer().empty());
    EXPECT_EQ(e.SizeInBits(), 0u);
    EXPECT_EQ(e.Count(), 0u);

    e = MakeEmpty(reset);
    e.AddLiteralWord(0);
    EXPECT_EQ(e.buffer(), (std::vector<std::uint64_t>{RunWords(1)}));
    EXPECT_EQ(e.SizeInBits(), 64u);

    e = MakeEmpty(reset);
    e.AddLiteralWord(~std::uint64_t(0));
    EXPECT_EQ(e.buffer(), (std::vector<std::uint64_t>{RunWords(1) | 1u}));

    e = MakeEmpty(reset);
    e.AddLiteralWord(0x5);
    EXPECT_EQ(e.buffer(), (std::vector<std::uint64_t>{kOneLiteral, 0x5}));
    EXPECT_EQ(e.Count(), 2u);
  }
}

TEST(EwahEmptyTest, OpsTreatEmptyAsAllZero) {
  const Ewah x = FiveAndSevenHundred();
  const std::vector<std::uint64_t> x_words = {
      kOneLiteral, 1u << 5, kOneLiteral | RunWords(9),
      std::uint64_t(1) << (700 - 640)};
  ASSERT_EQ(x.buffer(), x_words);
  const std::vector<std::uint64_t> eleven_zero_words = {RunWords(11)};
  for (bool reset : {false, true}) {
    const Ewah empty = MakeEmpty(reset);
    for (const Ewah& both :
         {Ewah::Or(empty, empty), Ewah::And(empty, empty),
          Ewah::AndNot(empty, empty), Ewah::Xor(empty, empty)}) {
      EXPECT_TRUE(both.buffer().empty());
      EXPECT_EQ(both.SizeInBits(), 0u);
      EXPECT_EQ(both.Count(), 0u);
    }
    for (const Ewah& same : {Ewah::Or(empty, x), Ewah::Or(x, empty),
                             Ewah::Xor(empty, x), Ewah::AndNot(x, empty)}) {
      EXPECT_EQ(same.buffer(), x_words);
      EXPECT_EQ(same.SizeInBits(), 701u);
    }
    for (const Ewah& none : {Ewah::And(empty, x), Ewah::And(x, empty),
                             Ewah::AndNot(empty, x)}) {
      EXPECT_EQ(none.buffer(), eleven_zero_words);
      EXPECT_EQ(none.SizeInBits(), 701u);
      EXPECT_EQ(none.Count(), 0u);
    }
  }
}

TEST(EwahEmptyTest, UnionAccumulatorAddsNothing) {
  for (bool reset : {false, true}) {
    const Ewah empty = MakeEmpty(reset);
    UnionAccumulator acc;
    EXPECT_FALSE(acc.Add(empty));
    EXPECT_EQ(acc.Count(), 0u);
    const Ewah none = acc.ToEwah();
    EXPECT_TRUE(none.buffer().empty());
    EXPECT_EQ(none.SizeInBits(), 0u);
    EXPECT_EQ(none.MemoryUsageBytes(), 0u);
    EXPECT_TRUE(acc.Add(FiveAndSevenHundred()));
    EXPECT_FALSE(acc.Add(empty));
    EXPECT_EQ(acc.Count(), 2u);
    EXPECT_EQ(acc.ToEwah().buffer(), FiveAndSevenHundred().buffer());
  }
}

// --- FromSortedIds: Set's encoding, built once ------------------------------

/// Ascending Set calls: the encoding FromSortedIds must reproduce.
Ewah SetEach(const std::vector<std::uint32_t>& ids) {
  Ewah e;
  for (std::uint32_t id : ids) e.Set(id);
  return e;
}

TEST(EwahFromSortedIdsTest, MatchesIncrementalSetByteForByte) {
  std::vector<std::vector<std::uint32_t>> cases = {
      {}, {0}, {63}, {64}, {5, 700}, {0, 1, 2, 200000}};
  // Full words: a completed all-ones word folds into a ones run, and a
  // last all-ones word stays a literal, as Set leaves them.
  std::vector<std::uint32_t> full;
  for (std::uint32_t i = 0; i < 64; ++i) full.push_back(i);
  cases.push_back(full);
  for (std::uint32_t i = 64; i < 64 * 5 + 3; ++i) full.push_back(i);
  cases.push_back(full);
  full.push_back(64 * 40);
  cases.push_back(full);
  Pcg32 rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint32_t> ids;
    std::uint32_t next = rng.NextBounded(300);
    const double dense = rng.NextDouble();
    for (int k = 0; k < 300; ++k) {
      ids.push_back(next);
      next += rng.NextDouble() < dense ? 1 : 1 + rng.NextBounded(400);
    }
    cases.push_back(ids);
  }
  std::vector<std::uint64_t> scratch;  // reused, as the grid build does
  for (const auto& ids : cases) {
    const Ewah want = SetEach(ids);
    const Ewah got = Ewah::FromSortedIds(ids, &scratch);
    EXPECT_EQ(got.buffer(), want.buffer()) << ids.size() << " ids";
    EXPECT_EQ(got.SizeInBits(), want.SizeInBits());
    EXPECT_EQ(got.MemoryUsageBytes(), got.CompressedBytes());
    EXPECT_EQ(got.Count(), ids.size());
  }
}

// --- logical op correctness, differential against PlainBitset -------------

struct OpCase {
  std::uint64_t seed;
  double density_a;
  double density_b;
  std::size_t universe;
};

// Names the ctest entry after the case, not its raw bytes.
void PrintTo(const OpCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " density=" << c.density_a << "," << c.density_b
      << " universe=" << c.universe;
}

class EwahOpsTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(EwahOpsTest, MatchesPlainBitsetSemantics) {
  const OpCase& c = GetParam();
  Pcg32 rng(c.seed);
  PlainBitset pa, pb;
  Ewah ea, eb;
  // Build both representations with ascending sets (the supported fast
  // path) at the parameterised densities.
  for (std::size_t i = 0; i < c.universe; ++i) {
    if (rng.NextDouble() < c.density_a) {
      pa.Set(i);
      ea.Set(i);
    }
    if (rng.NextDouble() < c.density_b) {
      pb.Set(i);
      eb.Set(i);
    }
  }
  ASSERT_TRUE(ea.ToPlain() == pa);
  ASSERT_TRUE(eb.ToPlain() == pb);

  {
    Ewah got = Ewah::Or(ea, eb);
    PlainBitset want = pa;
    want.OrWith(pb);
    EXPECT_TRUE(got.ToPlain() == want) << "OR seed=" << c.seed;
    EXPECT_EQ(got.Count(), want.Count());
  }
  {
    Ewah got = Ewah::And(ea, eb);
    PlainBitset want = pa;
    want.AndWith(pb);
    EXPECT_TRUE(got.ToPlain() == want) << "AND seed=" << c.seed;
  }
  {
    Ewah got = Ewah::AndNot(ea, eb);
    PlainBitset want = pa;
    want.AndNotWith(pb);
    EXPECT_TRUE(got.ToPlain() == want) << "ANDNOT seed=" << c.seed;
  }
  {
    Ewah got = Ewah::Xor(ea, eb);
    PlainBitset want = pa;
    want.XorWith(pb);
    EXPECT_TRUE(got.ToPlain() == want) << "XOR seed=" << c.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DensitySweep, EwahOpsTest,
    ::testing::Values(
        OpCase{1, 0.0, 0.0, 1000},      // both empty
        OpCase{2, 0.001, 0.001, 20000}, // very sparse
        OpCase{3, 0.01, 0.5, 5000},     // sparse vs dense
        OpCase{4, 0.5, 0.5, 5000},      // dense
        OpCase{5, 0.99, 0.99, 5000},    // near-full (ones runs)
        OpCase{6, 0.2, 0.0, 3000},      // one side empty
        OpCase{7, 1.0, 0.3, 2000},      // full side
        OpCase{8, 0.05, 0.05, 100000},  // large sparse
        OpCase{9, 0.3, 0.7, 777},       // non-word-aligned universe
        OpCase{10, 0.5, 0.5, 64},       // single word
        OpCase{11, 0.5, 0.5, 65}));     // word boundary + 1

TEST(EwahOpsTest, DifferentSizesTreatMissingAsZero) {
  Ewah small, big;
  small.Set(3);
  big.Set(3);
  big.Set(100000);
  Ewah o = Ewah::Or(small, big);
  EXPECT_EQ(o.Count(), 2u);
  Ewah a = Ewah::And(small, big);
  EXPECT_EQ(a.Count(), 1u);
  EXPECT_TRUE(a.Test(3));
  Ewah d = Ewah::AndNot(big, small);
  EXPECT_EQ(d.Count(), 1u);
  EXPECT_TRUE(d.Test(100000));
}

TEST(EwahStatsTest, CompressionStatsAggregate) {
  BitsetCompressionStats stats;
  Ewah sparse;
  sparse.Set(0);
  sparse.Set(1000000);
  stats.Add(sparse);
  EXPECT_EQ(stats.num_bitsets, 1u);
  EXPECT_GT(stats.SavingsRatio(), 0.99);

  BitsetCompressionStats other;
  other.Add(sparse);
  stats.Merge(other);
  EXPECT_EQ(stats.num_bitsets, 2u);
  EXPECT_FALSE(stats.ToString().empty());
}

}  // namespace
}  // namespace mio
