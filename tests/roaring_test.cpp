// Differential tests of the Roaring codec against PlainBitset, mirroring
// the EWAH suite (the two codecs must agree with the reference on every
// operation) plus Roaring-specific container-boundary cases.
#include "bitset/roaring.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "bitset/plain_bitset.hpp"
#include "common/random.hpp"

namespace mio {
namespace {

TEST(RoaringTest, StartsEmpty) {
  Roaring r;
  EXPECT_EQ(r.Count(), 0u);
  EXPECT_TRUE(r.Empty());
  EXPECT_FALSE(r.Test(0));
  EXPECT_EQ(r.NumContainers(), 0u);
}

TEST(RoaringTest, SetTestAnyOrder) {
  Roaring r;
  // Random order — the capability EWAH lacks.
  for (std::size_t i : {70000u, 5u, 65535u, 65536u, 5u, 131072u, 1u}) {
    r.Set(i);
  }
  EXPECT_EQ(r.Count(), 6u);
  EXPECT_TRUE(r.Test(5));
  EXPECT_TRUE(r.Test(65535));
  EXPECT_TRUE(r.Test(65536));
  EXPECT_TRUE(r.Test(70000));
  EXPECT_TRUE(r.Test(131072));
  EXPECT_FALSE(r.Test(6));
  EXPECT_FALSE(r.Test(65537));
  EXPECT_EQ(r.NumContainers(), 3u);  // chunks 0, 1, 2
}

TEST(RoaringTest, ArrayUpgradesToBitmapAtThreshold) {
  Roaring r;
  for (std::size_t i = 0; i < 5000; ++i) r.Set(i * 13 % 65536);
  // 5000 > 4096 distinct values forces the bitmap form; correctness holds.
  EXPECT_EQ(r.NumContainers(), 1u);
  EXPECT_EQ(r.Count(), 5000u);
  EXPECT_TRUE(r.Test(13));
  EXPECT_FALSE(r.Test(2));  // 2 is not a multiple of 13 mod 65536 hit
}

TEST(RoaringTest, PlainRoundTrip) {
  Pcg32 rng(4);
  PlainBitset plain;
  for (int i = 0; i < 3000; ++i) plain.Set(rng.NextBounded(300000));
  Roaring r = Roaring::FromPlain(plain);
  EXPECT_EQ(r.Count(), plain.Count());
  EXPECT_TRUE(r.ToPlain() == plain);
}

TEST(RoaringTest, ForEachSetBitAscending) {
  Roaring r;
  std::vector<std::size_t> idx = {200000, 3, 65536, 70000, 64};
  for (std::size_t i : idx) r.Set(i);
  std::vector<std::size_t> got;
  r.ForEachSetBit([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, (std::vector<std::size_t>{3, 64, 65536, 70000, 200000}));
}

struct RoaringOpCase {
  std::uint64_t seed;
  double density_a;
  double density_b;
  std::size_t universe;
};

// Names the ctest entry after the case, not its raw bytes.
void PrintTo(const RoaringOpCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " density=" << c.density_a << "," << c.density_b
      << " universe=" << c.universe;
}

class RoaringOpsTest : public ::testing::TestWithParam<RoaringOpCase> {};

TEST_P(RoaringOpsTest, MatchesPlainBitsetSemantics) {
  const RoaringOpCase& c = GetParam();
  Pcg32 rng(c.seed);
  PlainBitset pa, pb;
  Roaring ra, rb;
  for (std::size_t i = 0; i < c.universe; ++i) {
    if (rng.NextDouble() < c.density_a) {
      pa.Set(i);
      ra.Set(i);
    }
    if (rng.NextDouble() < c.density_b) {
      pb.Set(i);
      rb.Set(i);
    }
  }
  ASSERT_TRUE(ra.ToPlain() == pa);
  ASSERT_TRUE(rb.ToPlain() == pb);

  {
    PlainBitset want = pa;
    want.OrWith(pb);
    EXPECT_TRUE(Roaring::Or(ra, rb).ToPlain() == want) << "OR " << c.seed;
  }
  {
    PlainBitset want = pa;
    want.AndWith(pb);
    EXPECT_TRUE(Roaring::And(ra, rb).ToPlain() == want) << "AND " << c.seed;
  }
  {
    PlainBitset want = pa;
    want.AndNotWith(pb);
    EXPECT_TRUE(Roaring::AndNot(ra, rb).ToPlain() == want)
        << "ANDNOT " << c.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DensitySweep, RoaringOpsTest,
    ::testing::Values(
        RoaringOpCase{1, 0.0, 0.0, 1000},
        RoaringOpCase{2, 0.001, 0.001, 400000},  // arrays across chunks
        RoaringOpCase{3, 0.01, 0.4, 150000},     // array vs bitmap mixes
        RoaringOpCase{4, 0.5, 0.5, 100000},      // bitmap-bitmap
        RoaringOpCase{5, 0.95, 0.95, 70000},     // dense
        RoaringOpCase{6, 0.2, 0.0, 80000},       // one side empty
        RoaringOpCase{7, 0.08, 0.06, 65536},     // exactly one chunk
        RoaringOpCase{8, 0.07, 0.07, 65537}));   // chunk boundary + 1

TEST(RoaringOpsTest, AndDropsEmptyContainers) {
  Roaring a, b;
  a.Set(10);
  a.Set(70000);
  b.Set(11);
  b.Set(70000);
  Roaring c = Roaring::And(a, b);
  EXPECT_EQ(c.Count(), 1u);
  EXPECT_EQ(c.NumContainers(), 1u);  // chunk 0 intersection empty: dropped
}

TEST(RoaringOpsTest, CompressionOnSparseData) {
  Roaring sparse;
  sparse.Set(0);
  sparse.Set(1u << 20);
  // Two tiny array containers instead of 128 KiB of words.
  EXPECT_LT(sparse.CompressedBytes(), 64u);
}

TEST(RoaringOpsTest, BitmapDowngradesAfterAnd) {
  Roaring a, b;
  for (std::size_t i = 0; i < 10000; ++i) a.Set(i);
  for (std::size_t i = 9990; i < 20000; ++i) b.Set(i);
  Roaring c = Roaring::And(a, b);  // 10 elements: must be array form again
  EXPECT_EQ(c.Count(), 10u);
  EXPECT_LT(c.CompressedBytes(), 200u);
}

}  // namespace
}  // namespace mio
