// Cross-cutting invariants of the MIO problem and the bitset algebra —
// properties that must hold for any input, checked on randomised sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bitset/ewah.hpp"
#include "bitset/roaring.hpp"
#include "core/batch.hpp"
#include "core/mio_engine.hpp"
#include "geo/point.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

// ---------------------------------------------------------------------------
// Problem-level properties
// ---------------------------------------------------------------------------

class MioPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  ObjectSet MakeSet() const {
    return testing::MakeRandomObjects(40, 3, 10, 30.0, GetParam(), 5.0);
  }
};

TEST_P(MioPropertyTest, ScoresAreMonotoneInR) {
  // Growing r can only add interactions: tau_r(o) <= tau_r'(o) for r <= r',
  // object-wise — and hence the winner's score is monotone too.
  ObjectSet set = MakeSet();
  std::vector<std::uint32_t> prev(set.size(), 0);
  for (double r : {1.0, 2.5, 4.0, 6.0, 9.0}) {
    std::vector<std::uint32_t> cur = testing::OracleScores(set, r);
    for (ObjectId i = 0; i < set.size(); ++i) {
      EXPECT_GE(cur[i], prev[i]) << "object " << i << " r=" << r;
    }
    prev = std::move(cur);
  }
}

TEST_P(MioPropertyTest, EngineWinnerMonotoneInR) {
  ObjectSet set = MakeSet();
  MioEngine engine(set);
  std::uint32_t prev = 0;
  for (double r : {1.0, 2.5, 4.0, 6.0, 9.0}) {
    std::uint32_t best = engine.Query(r).best().score;
    EXPECT_GE(best, prev) << "r=" << r;
    prev = best;
  }
}

TEST_P(MioPropertyTest, ScoreSumIsEvenAndBounded) {
  // tau counts symmetric pairs: the sum over all objects is twice the
  // interacting-pair count, so it is even and at most n(n-1).
  ObjectSet set = MakeSet();
  std::vector<std::uint32_t> tau = testing::OracleScores(set, 5.0);
  std::uint64_t sum = 0;
  for (std::uint32_t t : tau) sum += t;
  EXPECT_EQ(sum % 2, 0u);
  EXPECT_LE(sum, static_cast<std::uint64_t>(set.size()) * (set.size() - 1));
}

TEST_P(MioPropertyTest, DuplicatingTheWinnerRaisesEveryNeighbor) {
  // Appending an exact copy of the winner adds one interaction partner to
  // each of its partners (and the copy interacts with the winner).
  ObjectSet set = MakeSet();
  MioEngine engine(set);
  QueryResult before = engine.Query(5.0);
  if (before.best().score == 0) GTEST_SKIP();

  ObjectSet bigger;
  for (const Object& o : set.objects()) bigger.Add(o);
  bigger.Add(set[before.best().id]);
  MioEngine engine2(bigger);
  QueryResult after = engine2.Query(5.0);
  // The duplicated winner now also interacts with its twin.
  EXPECT_GE(after.best().score, before.best().score + 1);
}

TEST_P(MioPropertyTest, TopKIsPrefixOfTopKPlusOne) {
  ObjectSet set = MakeSet();
  MioEngine engine(set);
  QueryOptions opt3;
  opt3.k = 3;
  QueryOptions opt5;
  opt5.k = 5;
  std::vector<ScoredObject> top3 = engine.Query(5.0, opt3).topk;
  std::vector<ScoredObject> top5 = engine.Query(5.0, opt5).topk;
  ASSERT_GE(top5.size(), top3.size());
  for (std::size_t i = 0; i < top3.size(); ++i) {
    EXPECT_EQ(top3[i].score, top5[i].score) << i;  // scores agree prefix-wise
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MioPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Metamorphic relations
// ---------------------------------------------------------------------------
// Each relation transforms the input in a way whose effect on every score
// is known, so it needs no oracle. With k = n, Query scores every object,
// so a relation compares whole score vectors; with k = 1 it compares the
// early-stopped answer. Coordinates are multiples of 1/8 below 2^20 in
// magnitude and r * r is exact, so every squared distance is exact and a
// pair at distance exactly r cannot flip by rounding when the input moves.

enum class QueryPath { kSerial, kThreads2, kLabels, kBatch };

std::string PathName(const ::testing::TestParamInfo<QueryPath>& info) {
  switch (info.param) {
    case QueryPath::kSerial:
      return "Serial";
    case QueryPath::kThreads2:
      return "Threads2";
    case QueryPath::kLabels:
      return "LabelsRecordedThenUsed";
    case QueryPath::kBatch:
      return "QueryBatch";
  }
  return "Unknown";
}

constexpr double kMetaR = 3.5;  // ceil(r) = 4, r * r = 12.25
constexpr std::uint64_t kMetaSeeds[] = {11, 12, 13};

ObjectSet MapPoints(const ObjectSet& set,
                    const std::function<Point(const Point&)>& f) {
  ObjectSet out;
  for (const Object& o : set.objects()) {
    Object moved;
    for (const Point& p : o.points) moved.points.push_back(f(p));
    out.Add(std::move(moved));
  }
  return out;
}

ObjectSet MakeLatticeObjects(std::uint64_t seed) {
  auto snap = [](double v) { return std::round(v * 8.0) / 8.0; };
  return MapPoints(
      testing::MakeRandomObjects(40, 3, 10, 30.0, seed, 5.0),
      [&](const Point& p) { return Point{snap(p.x), snap(p.y), snap(p.z)}; });
}

/// The top-k of `set` at kMetaR through one path. Paths that run more
/// than one query (a recording then a using query; two batch members)
/// must agree on every score.
std::vector<ScoredObject> TopKVia(const ObjectSet& set, QueryPath path,
                                  std::size_t k) {
  MioEngine engine(set);
  QueryOptions opt;
  opt.k = k;
  std::vector<QueryResult> runs;
  switch (path) {
    case QueryPath::kSerial:
      runs.push_back(engine.Query(kMetaR, opt));
      break;
    case QueryPath::kThreads2:
      opt.threads = 2;
      runs.push_back(engine.Query(kMetaR, opt));
      break;
    case QueryPath::kLabels:
      opt.use_labels = true;
      opt.record_labels = true;
      runs.push_back(engine.Query(kMetaR, opt));
      runs.push_back(engine.Query(kMetaR, opt));
      EXPECT_EQ(runs.back().stats.label_outcome, LabelOutcome::kHitMemory);
      break;
    case QueryPath::kBatch:
      runs = engine.QueryBatch({{kMetaR, opt}, {kMetaR, opt}}).results;
      break;
  }
  for (const QueryResult& res : runs) {
    EXPECT_TRUE(res.status.ok()) << res.status.ToString();
    EXPECT_EQ(res.topk.size(), std::min(k, set.size()));
    for (std::size_t i = 0; i < res.topk.size(); ++i) {
      EXPECT_EQ(res.topk[i].score, runs.front().topk[i].score) << i;
    }
  }
  return runs.back().topk;
}

/// Every object's score, indexed by id (k = n).
std::vector<std::uint32_t> ScoresVia(const ObjectSet& set, QueryPath path) {
  std::vector<std::uint32_t> scores(set.size(), 0);
  for (const ScoredObject& s : TopKVia(set, path, set.size())) {
    scores[s.id] = s.score;
  }
  return scores;
}

std::uint32_t TopScoreVia(const ObjectSet& set, QueryPath path) {
  std::vector<ScoredObject> top = TopKVia(set, path, 1);
  return top.empty() ? 0 : top[0].score;
}

bool Interacts(const Object& a, const Object& b) {
  for (const Point& p : a.points) {
    for (const Point& q : b.points) {
      if (SquaredDistance(p, q) <= kMetaR * kMetaR) return true;
    }
  }
  return false;
}

class MetamorphicTest : public ::testing::TestWithParam<QueryPath> {};

TEST_P(MetamorphicTest, IdPermutationMovesScoresWithObjects) {
  for (std::uint64_t seed : kMetaSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ObjectSet set = MakeLatticeObjects(seed);
    const std::vector<std::uint32_t> base = ScoresVia(set, GetParam());
    std::vector<ObjectId> perm(set.size());
    std::iota(perm.begin(), perm.end(), 0);
    Pcg32 rng(seed, 3);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1],
                perm[rng.NextBounded(static_cast<std::uint32_t>(i))]);
    }
    ObjectSet permuted;
    for (ObjectId from : perm) permuted.Add(set[from]);
    const std::vector<std::uint32_t> got = ScoresVia(permuted, GetParam());
    for (ObjectId i = 0; i < permuted.size(); ++i) {
      EXPECT_EQ(got[i], base[perm[i]]) << "object " << perm[i];
    }
    // The top-1 score is kept; its id may move to another tied object.
    const std::vector<ScoredObject> top = TopKVia(permuted, GetParam(), 1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].score, TopScoreVia(set, GetParam()));
    EXPECT_EQ(top[0].score, got[top[0].id]);
  }
}

TEST_P(MetamorphicTest, RigidMotionsKeepEveryScore) {
  const double cell = std::ceil(kMetaR);
  const std::pair<const char*, std::function<Point(const Point&)>> motions[] =
      {{"translate by whole large cells",
        [&](const Point& p) {
          return Point{p.x + 3 * cell, p.y - 5 * cell, p.z + 7 * cell};
        }},
       {"translate by an arbitrary offset",
        [](const Point& p) {
          return Point{p.x + 13.375, p.y - 7.625, p.z + 0.875};
        }},
       {"permute the axes",
        [](const Point& p) { return Point{p.y, p.z, p.x}; }},
       {"reflect x", [](const Point& p) { return Point{-p.x, p.y, p.z}; }}};
  for (std::uint64_t seed : kMetaSeeds) {
    const ObjectSet set = MakeLatticeObjects(seed);
    const std::vector<std::uint32_t> base = ScoresVia(set, GetParam());
    const std::uint32_t top = TopScoreVia(set, GetParam());
    for (const auto& [name, motion] : motions) {
      SCOPED_TRACE(std::string(name) + ", seed " + std::to_string(seed));
      const ObjectSet moved = MapPoints(set, motion);
      EXPECT_EQ(ScoresVia(moved, GetParam()), base);
      EXPECT_EQ(TopScoreVia(moved, GetParam()), top);
    }
  }
}

TEST_P(MetamorphicTest, FarAwayObjectScoresZeroAndChangesNothing) {
  for (std::uint64_t seed : kMetaSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ObjectSet set = MakeLatticeObjects(seed);
    const std::vector<std::uint32_t> base = ScoresVia(set, GetParam());
    ObjectSet bigger = set;
    Object far;
    far.points = {{65536.5, -65536.25, 65536.125},
                  {65537.0, -65536.25, 65536.125}};
    bigger.Add(std::move(far));
    std::vector<std::uint32_t> got = ScoresVia(bigger, GetParam());
    EXPECT_EQ(got.back(), 0u);
    got.pop_back();
    EXPECT_EQ(got, base);
    EXPECT_EQ(TopScoreVia(bigger, GetParam()), TopScoreVia(set, GetParam()));
  }
}

TEST_P(MetamorphicTest, DuplicateAndItsPartnersEachGainOne) {
  for (std::uint64_t seed : kMetaSeeds) {
    const ObjectSet set = MakeLatticeObjects(seed);
    const std::vector<std::uint32_t> base = ScoresVia(set, GetParam());
    const ObjectId winner = static_cast<ObjectId>(
        std::max_element(base.begin(), base.end()) - base.begin());
    for (ObjectId dup : {ObjectId{0}, winner}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " duplicating " +
                   std::to_string(dup));
      ObjectSet bigger = set;
      bigger.Add(set[dup]);
      const std::vector<std::uint32_t> got = ScoresVia(bigger, GetParam());
      EXPECT_EQ(got[dup], base[dup] + 1);
      EXPECT_EQ(got.back(), base[dup] + 1);
      std::uint32_t gained = 0;
      for (ObjectId i = 0; i < set.size(); ++i) {
        if (i == dup) continue;
        const std::uint32_t partner = Interacts(set[i], set[dup]) ? 1 : 0;
        EXPECT_EQ(got[i], base[i] + partner) << "object " << i;
        gained += partner;
      }
      EXPECT_EQ(gained, base[dup]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, MetamorphicTest,
                         ::testing::Values(QueryPath::kSerial,
                                           QueryPath::kThreads2,
                                           QueryPath::kLabels,
                                           QueryPath::kBatch),
                         PathName);

// ---------------------------------------------------------------------------
// Bitset algebra laws (differentially, EWAH and Roaring)
// ---------------------------------------------------------------------------

class BitsetAlgebraTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void Fill(PlainBitset* p, double density, std::size_t universe,
            std::uint64_t salt) const {
    Pcg32 rng(GetParam() * 1000 + salt);
    for (std::size_t i = 0; i < universe; ++i) {
      if (rng.NextDouble() < density) p->Set(i);
    }
  }
};

TEST_P(BitsetAlgebraTest, EwahLaws) {
  PlainBitset pa, pb, pc;
  Fill(&pa, 0.1, 5000, 1);
  Fill(&pb, 0.3, 5000, 2);
  Fill(&pc, 0.02, 9000, 3);
  Ewah a = Ewah::FromPlain(pa), b = Ewah::FromPlain(pb),
       c = Ewah::FromPlain(pc);

  // Commutativity and associativity of OR.
  EXPECT_TRUE(Ewah::Or(a, b) == Ewah::Or(b, a));
  EXPECT_TRUE(Ewah::Or(Ewah::Or(a, b), c) == Ewah::Or(a, Ewah::Or(b, c)));
  // Distributivity: a & (b | c) == (a & b) | (a & c).
  EXPECT_TRUE(Ewah::And(a, Ewah::Or(b, c)) ==
              Ewah::Or(Ewah::And(a, b), Ewah::And(a, c)));
  // Inclusion-exclusion on cardinalities.
  EXPECT_EQ(Ewah::Or(a, b).Count() + Ewah::And(a, b).Count(),
            a.Count() + b.Count());
  // AndNot decomposition: a == (a & b) | (a & ~b).
  EXPECT_TRUE(Ewah::Or(Ewah::And(a, b), Ewah::AndNot(a, b)) == a);
  // Xor as symmetric difference.
  EXPECT_TRUE(Ewah::Xor(a, b) ==
              Ewah::Or(Ewah::AndNot(a, b), Ewah::AndNot(b, a)));
  // Idempotence.
  EXPECT_TRUE(Ewah::Or(a, a) == a);
  EXPECT_TRUE(Ewah::And(a, a) == a);
  EXPECT_EQ(Ewah::AndNot(a, a).Count(), 0u);
}

TEST_P(BitsetAlgebraTest, RoaringLaws) {
  PlainBitset pa, pb;
  Fill(&pa, 0.05, 150000, 4);
  Fill(&pb, 0.2, 100000, 5);
  Roaring a = Roaring::FromPlain(pa), b = Roaring::FromPlain(pb);

  EXPECT_TRUE(Roaring::Or(a, b) == Roaring::Or(b, a));
  EXPECT_EQ(Roaring::Or(a, b).Count() + Roaring::And(a, b).Count(),
            a.Count() + b.Count());
  EXPECT_TRUE(Roaring::Or(Roaring::And(a, b), Roaring::AndNot(a, b)) == a);
  EXPECT_TRUE(Roaring::And(a, a) == a);
  EXPECT_EQ(Roaring::AndNot(a, a).Count(), 0u);
}

TEST_P(BitsetAlgebraTest, CodecsAgreeWithEachOther) {
  PlainBitset pa, pb;
  Fill(&pa, 0.15, 20000, 6);
  Fill(&pb, 0.08, 30000, 7);
  Ewah ea = Ewah::FromPlain(pa), eb = Ewah::FromPlain(pb);
  Roaring ra = Roaring::FromPlain(pa), rb = Roaring::FromPlain(pb);

  EXPECT_TRUE(Ewah::Or(ea, eb).ToPlain() == Roaring::Or(ra, rb).ToPlain());
  EXPECT_TRUE(Ewah::And(ea, eb).ToPlain() == Roaring::And(ra, rb).ToPlain());
  EXPECT_TRUE(Ewah::AndNot(ea, eb).ToPlain() ==
              Roaring::AndNot(ra, rb).ToPlain());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsetAlgebraTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace mio
