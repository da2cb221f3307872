#include "common/flat_hash_map.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/random.hpp"
#include "geo/cell_key.hpp"

namespace mio {
namespace {

struct IntHash {
  std::size_t operator()(int v) const {
    // Deliberately weak mixing to stress probing/clustering.
    return static_cast<std::size_t>(v) * 2654435761u;
  }
};

TEST(FlatHashMapTest, InsertAndFind) {
  FlatHashMap<int, std::string, IntHash> map;
  EXPECT_TRUE(map.empty());
  map[1] = "one";
  map[2] = "two";
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(1), nullptr);
  EXPECT_EQ(*map.Find(1), "one");
  EXPECT_EQ(map.Find(3), nullptr);
  EXPECT_TRUE(map.Contains(2));
  EXPECT_FALSE(map.Contains(99));
}

TEST(FlatHashMapTest, OperatorBracketDefaultConstructs) {
  FlatHashMap<int, int, IntHash> map;
  EXPECT_EQ(map[5], 0);
  map[5] += 7;
  EXPECT_EQ(map[5], 7);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMapTest, GrowsThroughManyInserts) {
  FlatHashMap<int, int, IntHash> map;
  std::map<int, int> ref;
  Pcg32 rng(3);
  for (int i = 0; i < 20000; ++i) {
    int key = static_cast<int>(rng.NextBounded(50000));
    map[key] = i;
    ref[key] = i;
  }
  EXPECT_EQ(map.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_NE(map.Find(k), nullptr) << k;
    EXPECT_EQ(*map.Find(k), v);
  }
  // Negative lookups.
  for (int k = 50001; k < 50100; ++k) EXPECT_EQ(map.Find(k), nullptr);
}

TEST(FlatHashMapTest, ForEachVisitsEverythingOnce) {
  FlatHashMap<int, int, IntHash> map;
  for (int i = 0; i < 500; ++i) map[i * 3] = i;
  std::map<int, int> seen;
  map.ForEach([&](int k, int v) { seen[k] = v; });
  EXPECT_EQ(seen.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(seen[i * 3], i);
}

TEST(FlatHashMapTest, ReserveAvoidsRehash) {
  FlatHashMap<int, int, IntHash> map;
  map.Reserve(10000);
  std::size_t bytes = map.TableBytes();
  for (int i = 0; i < 10000; ++i) map[i] = i;
  EXPECT_EQ(map.TableBytes(), bytes);  // no growth happened
  EXPECT_EQ(map.size(), 10000u);
}

TEST(FlatHashMapTest, CellKeyUsage) {
  FlatHashMap<CellKey, int, CellKeyHash> map;
  for (int x = -10; x <= 10; ++x) {
    for (int y = -10; y <= 10; ++y) {
      map[CellKey{x, y, x + y}] = x * 100 + y;
    }
  }
  EXPECT_EQ(map.size(), 21u * 21u);
  ASSERT_NE(map.Find(CellKey{-3, 4, 1}), nullptr);
  EXPECT_EQ(*map.Find(CellKey{-3, 4, 1}), -296);
  EXPECT_EQ(map.Find(CellKey{-3, 4, 2}), nullptr);
}

TEST(FlatHashMapTest, CollidingKeysProbeCorrectly) {
  // All keys hash to the same bucket modulo table size.
  struct ConstHash {
    std::size_t operator()(int) const { return 42; }
  };
  FlatHashMap<int, int, ConstHash> map;
  for (int i = 0; i < 100; ++i) map[i] = i * i;
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(map.Find(i), nullptr);
    EXPECT_EQ(*map.Find(i), i * i);
  }
  EXPECT_EQ(map.Find(1000), nullptr);
}

}  // namespace
}  // namespace mio
