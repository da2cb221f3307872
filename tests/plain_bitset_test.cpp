#include "bitset/plain_bitset.hpp"

#include <gtest/gtest.h>

#include <set>

#include "bitset/ewah.hpp"
#include "common/random.hpp"

namespace mio {
namespace {

TEST(PlainBitsetTest, StartsEmpty) {
  PlainBitset b;
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(b.Empty());
  EXPECT_FALSE(b.Test(0));
  EXPECT_FALSE(b.Test(1000));
}

TEST(PlainBitsetTest, SetTestClear) {
  PlainBitset b;
  b.Set(5);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(5));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(6));
  EXPECT_EQ(b.Count(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(PlainBitsetTest, ClearPastEndIsNoop) {
  PlainBitset b;
  b.Set(3);
  b.Clear(1000);
  EXPECT_EQ(b.Count(), 1u);
}

TEST(PlainBitsetTest, SetIsIdempotent) {
  PlainBitset b;
  b.Set(42);
  b.Set(42);
  EXPECT_EQ(b.Count(), 1u);
}

TEST(PlainBitsetTest, ResizeGrowsOnly) {
  PlainBitset b(100);
  EXPECT_EQ(b.SizeInBits(), 100u);
  b.Resize(50);
  EXPECT_EQ(b.SizeInBits(), 100u);
  b.Resize(200);
  EXPECT_EQ(b.SizeInBits(), 200u);
}

TEST(PlainBitsetTest, OrWithGrows) {
  PlainBitset a, b;
  a.Set(1);
  b.Set(500);
  a.OrWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(500));
  EXPECT_EQ(a.Count(), 2u);
}

TEST(PlainBitsetTest, AndWithDropsOutside) {
  PlainBitset a, b;
  a.Set(1);
  a.Set(70);
  a.Set(500);
  b.Set(70);
  a.AndWith(b);
  EXPECT_EQ(a.Count(), 1u);
  EXPECT_TRUE(a.Test(70));
}

TEST(PlainBitsetTest, AndNotWith) {
  PlainBitset a, b;
  a.Set(1);
  a.Set(2);
  a.Set(3);
  b.Set(2);
  b.Set(99);
  a.AndNotWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_FALSE(a.Test(2));
  EXPECT_TRUE(a.Test(3));
}

TEST(PlainBitsetTest, XorWith) {
  PlainBitset a, b;
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  a.XorWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_FALSE(a.Test(2));
  EXPECT_TRUE(a.Test(3));
}

TEST(PlainBitsetTest, ForEachSetBitAscending) {
  PlainBitset b;
  b.Set(300);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  std::vector<std::size_t> got = b.SetBits();
  EXPECT_EQ(got, (std::vector<std::size_t>{0, 63, 64, 300}));
}

TEST(PlainBitsetTest, ResetKeepsCapacityClearsBits) {
  PlainBitset b;
  for (std::size_t i = 0; i < 1000; i += 7) b.Set(i);
  b.Reset();
  EXPECT_EQ(b.Count(), 0u);
  b.Set(3);
  EXPECT_EQ(b.Count(), 1u);
}

TEST(PlainBitsetTest, EqualityIgnoresTrailingZeros) {
  PlainBitset a, b;
  a.Set(10);
  b.Set(10);
  b.Resize(10000);  // extra zero words
  EXPECT_TRUE(a == b);
  b.Set(9999);
  EXPECT_FALSE(a == b);
}

TEST(PlainBitsetTest, RandomisedAgainstStdSet) {
  Pcg32 rng(7);
  PlainBitset b;
  std::set<std::size_t> ref;
  for (int i = 0; i < 5000; ++i) {
    std::size_t idx = rng.NextBounded(4096);
    if (rng.NextDouble() < 0.7) {
      b.Set(idx);
      ref.insert(idx);
    } else {
      b.Clear(idx);
      ref.erase(idx);
    }
  }
  EXPECT_EQ(b.Count(), ref.size());
  for (std::size_t idx : ref) EXPECT_TRUE(b.Test(idx));
  std::vector<std::size_t> bits = b.SetBits();
  EXPECT_EQ(bits, std::vector<std::size_t>(ref.begin(), ref.end()));
}

// ---------------------------------------------------------------------------
// UnionAccumulator: the bound phases' union, checked against a PlainBitset
// reference and against an Ewah::Or fold over the same inputs.
// ---------------------------------------------------------------------------

/// One random input, built by ascending Set as the grid builds its cell
/// bitsets, and mirrored into `bits`. Shapes: empty; sparse ids reaching
/// past 2^16; a dense stretch (whole words become a ones run, and one
/// that ends a word stays a trailing all-ones literal); a last id that
/// ends a word; a cluster of ids ending mid-word.
Ewah RandomInput(Pcg32& rng, PlainBitset* bits) {
  Ewah e;
  auto set = [&](std::size_t i) {
    e.Set(i);
    bits->Set(i);
  };
  switch (rng.NextBounded(5)) {
    case 0:
      break;
    case 1: {
      std::size_t i = rng.NextBounded(1u << 17);
      for (int c = 0; c < 40; ++c, i += 1 + rng.NextBounded(3000)) set(i);
      break;
    }
    case 2: {
      const std::size_t begin = rng.NextBounded(1u << 16);
      const std::size_t end = begin + 64 + rng.NextBounded(600);
      for (std::size_t i = begin; i < end; ++i) set(i);
      break;
    }
    case 3: {
      const std::size_t last = 64 * (1 + rng.NextBounded(2048)) - 1;
      for (std::size_t i = rng.NextBounded(static_cast<std::uint32_t>(last));
           i < last; i += 1 + rng.NextBounded(90)) {
        set(i);
      }
      set(last);
      break;
    }
    default: {
      std::size_t i = (1u << 16) + rng.NextBounded(1u << 16);
      for (int c = 0; c < 20; ++c, i += 1 + rng.NextBounded(10)) set(i);
      break;
    }
  }
  return e;
}

void ExpectSameEncoding(const Ewah& got, const Ewah& want) {
  EXPECT_EQ(got.buffer(), want.buffer());
  EXPECT_EQ(got.SizeInBits(), want.SizeInBits());
}

TEST(UnionAccumulatorTest, MatchesPlainReferenceAndOrFold) {
  Pcg32 rng(23);
  UnionAccumulator acc;  // reused across unions, as the bound phases do
  for (int trial = 0; trial < 300; ++trial) {
    acc.Clear();
    PlainBitset ref;
    Ewah fold;
    Ewah last;
    const std::uint32_t inputs = rng.NextBounded(12);
    for (std::uint32_t in = 0; in < inputs; ++in) {
      PlainBitset bits;
      last = RandomInput(rng, &bits);
      const std::size_t before = ref.Count();
      ref.OrWith(bits);
      fold = Ewah::Or(fold, last);
      // Add reports a new bit exactly when the count grew.
      EXPECT_EQ(acc.Add(last), ref.Count() > before) << "trial " << trial;
      EXPECT_EQ(acc.Count(), ref.Count()) << "trial " << trial;
    }
    EXPECT_FALSE(acc.Add(last));  // a repeat adds nothing
    EXPECT_EQ(acc.Count(), ref.Count());

    Ewah got = acc.ToEwah();
    EXPECT_TRUE(got.ToPlain() == ref) << "trial " << trial;
    ExpectSameEncoding(got, fold);
    EXPECT_EQ(got.MemoryUsageBytes(), got.CompressedBytes());  // exact
    ExpectSameEncoding(acc.ToEwah(), got);  // encoding leaves acc intact
  }
}

TEST(UnionAccumulatorTest, ClearedEqualsFresh) {
  Pcg32 rng(31);
  UnionAccumulator reused;
  for (int trial = 0; trial < 100; ++trial) {
    PlainBitset unused;
    for (int in = 0; in < 5; ++in) reused.Add(RandomInput(rng, &unused));
    reused.Clear();
    EXPECT_EQ(reused.Count(), 0u);
    ExpectSameEncoding(reused.ToEwah(), Ewah());

    UnionAccumulator fresh;
    for (int in = 0; in < 3; ++in) {
      Ewah e = RandomInput(rng, &unused);
      EXPECT_EQ(reused.Add(e), fresh.Add(e));
      EXPECT_EQ(reused.Count(), fresh.Count());
    }
    ExpectSameEncoding(reused.ToEwah(), fresh.ToEwah());
  }
}

TEST(UnionAccumulatorTest, MergedAccumulatorsEqualOneFold) {
  Pcg32 rng(37);
  for (int trial = 0; trial < 100; ++trial) {
    UnionAccumulator halves[2];
    UnionAccumulator whole;
    Ewah fold;
    PlainBitset unused;
    for (int in = 0; in < 8; ++in) {
      Ewah e = RandomInput(rng, &unused);
      halves[in % 2].Add(e);
      whole.Add(e);
      fold = Ewah::Or(fold, e);
    }
    const std::size_t before = halves[0].Count();
    EXPECT_EQ(halves[0].Add(halves[1]), whole.Count() > before);
    EXPECT_EQ(halves[0].Count(), whole.Count());
    ExpectSameEncoding(halves[0].ToEwah(), fold);
  }
}

TEST(UnionAccumulatorTest, CellUnionPattern) {
  // The BIGrid lower bound ORs many cell bitsets into an accumulator.
  Pcg32 rng(21);
  UnionAccumulator acc;
  PlainBitset ref;
  for (int cell = 0; cell < 50; ++cell) {
    Ewah cell_bits;
    std::size_t base = rng.NextBounded(5000);
    for (int j = 0; j < 20; ++j) {
      std::size_t idx = base + j * (1 + rng.NextBounded(10));
      cell_bits.Set(idx);
      ref.Set(idx);
    }
    acc.Add(cell_bits);
  }
  EXPECT_EQ(acc.Count(), ref.Count());
  EXPECT_TRUE(acc.ToEwah().ToPlain() == ref);
}

}  // namespace
}  // namespace mio
