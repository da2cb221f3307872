// Ablations of BIGrid design choices called out in DESIGN.md:
//
//  (1) small-grid cell width: the paper's r/sqrt(3) (diagonal = r) vs a
//      narrower r/2 (sound, tighter cells -> fewer certain pairs) vs a
//      wider r (UNSOUND in 3-D: the diagonal exceeds r). We report
//      lower-bound tightness (mean LB / exact) and soundness violations.
//  (2) verification order: best-first by descending upper bound
//      (Corollary 1) vs arbitrary id order — measured as the number of
//      objects that must be exactly verified before termination.
//  (3) upper-bounding OR granularity: the paper's per-point OR vs
//      one OR per distinct cell (what Labeling-2 effectively converges
//      to, and what serial UpperBounding does) — quantifies how much of
//      BIGrid-label's gain is key dedup.
//  (4) stopping losers: best-first verification whose scans get the
//      top-1 threshold (a scan stops once its confirmed partners plus its
//      undecided objects cannot beat it) vs every scan run to its exact
//      score — candidates verified and stopped, distance computations and
//      verification time.
//
//   ./bench_ablation [--datasets=neuron,bird2] [--r=4[,R2,...]]
#include <cmath>
#include <numeric>

#include "baseline/rtree_mbr.hpp"
#include "bench_common.hpp"
#include "bitset/ewah.hpp"
#include "core/bigrid.hpp"
#include "core/lower_bound.hpp"
#include "core/upper_bound.hpp"
#include "core/verification.hpp"

namespace {

// Lower bounds from a small grid of arbitrary width (same construction as
// BIGrid's, reimplemented to allow non-standard widths).
std::vector<std::uint32_t> LowerBoundsAtWidth(const mio::ObjectSet& set,
                                              double width) {
  std::unordered_map<mio::CellKey, mio::Ewah, mio::CellKeyHash> cells;
  for (mio::ObjectId i = 0; i < set.size(); ++i) {
    for (const mio::Point& p : set[i].points) {
      cells[mio::KeyForWidth(p, width)].Set(i);
    }
  }
  std::vector<std::uint32_t> lb(set.size(), 0);
  mio::UnionAccumulator acc;
  for (mio::ObjectId i = 0; i < set.size(); ++i) {
    acc.Clear();
    for (const mio::Point& p : set[i].points) {
      acc.Add(cells[mio::KeyForWidth(p, width)]);
    }
    std::size_t c = acc.Count();
    lb[i] = c > 0 ? static_cast<std::uint32_t>(c - 1) : 0;
  }
  return lb;
}

void ReportWidthAblation(const mio::ObjectSet& set, double r,
                         const std::vector<std::uint32_t>& exact) {
  struct WidthCase {
    const char* name;
    double width;
  };
  const WidthCase cases[] = {
      {"r/sqrt(3) (paper)", mio::SmallGridWidth(r)},
      {"r/2 (narrower)", r / 2.0},
      {"r (too wide)", r},
  };
  std::printf("  %-20s %14s %12s %12s\n", "small-grid width", "mean LB/tau",
              "violations", "max LB");
  for (const WidthCase& c : cases) {
    std::vector<std::uint32_t> lb = LowerBoundsAtWidth(set, c.width);
    double ratio_sum = 0.0;
    std::size_t with_score = 0, violations = 0;
    std::uint32_t max_lb = 0;
    for (mio::ObjectId i = 0; i < set.size(); ++i) {
      if (lb[i] > exact[i]) ++violations;
      if (exact[i] > 0) {
        ratio_sum += std::min<double>(lb[i], exact[i]) / exact[i];
        ++with_score;
      }
      max_lb = std::max(max_lb, lb[i]);
    }
    std::printf("  %-20s %14.3f %12zu %12u\n", c.name,
                with_score ? ratio_sum / with_score : 0.0, violations,
                max_lb);
  }
}

void ReportVerificationOrderAblation(const mio::ObjectSet& set, double r) {
  mio::BiGrid grid(set, r);
  grid.Build();
  mio::LowerBoundResult lb = mio::LowerBounding(grid, false);
  mio::UpperBoundResult ub =
      mio::UpperBounding(grid, lb.tau_low_max, nullptr, nullptr, nullptr);

  auto count_verified = [&](const std::vector<mio::ObjectId>& order) {
    mio::TopKTracker tracker(1);
    std::size_t verified = 0;
    // Arbitrary order cannot early-break on the queue-front bound; it can
    // only skip objects individually (their own bound check).
    for (mio::ObjectId i : order) {
      if (static_cast<long long>(ub.tau_upp[i]) <= tracker.Threshold()) {
        continue;
      }
      tracker.Offer(i, mio::ExactScore(grid, i, nullptr, nullptr, nullptr,
                                       nullptr));
      ++verified;
    }
    return verified;
  };

  std::size_t best_first = count_verified(ub.candidates);
  std::vector<mio::ObjectId> id_order = ub.candidates;
  std::sort(id_order.begin(), id_order.end());
  std::size_t arbitrary = count_verified(id_order);
  std::printf("  verification order: best-first verifies %zu objects, "
              "id-order verifies %zu (of %zu candidates)\n",
              best_first, arbitrary, ub.candidates.size());
}

void ReportStopAblation(const mio::ObjectSet& set, double r) {
  mio::BiGrid grid(set, r);
  grid.Build();
  mio::LowerBoundResult lb = mio::LowerBounding(grid, false);
  mio::UpperBoundResult ub =
      mio::UpperBounding(grid, lb.tau_low_max, nullptr, nullptr, nullptr,
                         nullptr, &lb.tau_low);
  for (bool stop : {false, true}) {
    mio::QueryStats stats;
    mio::VerifyArena arena;
    mio::Timer t;
    const std::vector<mio::ScoredObject> top = mio::VerifyCandidates(
        ub, 1, nullptr, &stats, nullptr,
        [&](mio::ObjectId i, const mio::Ewah*, long long threshold,
            bool* stopped) {
          return mio::ExactScore(grid, i, nullptr, nullptr, nullptr,
                                 &stats.distance_computations, true, nullptr,
                                 &arena, stop ? threshold : -1, stopped);
        });
    const double ms = t.ElapsedSeconds() * 1e3;
    std::printf("  verification %-17s verified %zu, stopped %zu, %zu distance "
                "computations, %.2f ms (tau=%u)\n",
                stop ? "with threshold:" : "without threshold:",
                stats.num_verified, stats.num_stopped,
                stats.distance_computations, ms,
                top.empty() ? 0u : top.front().score);
  }
}

std::size_t benchmark_sink = 0;

void ReportUbGranularityAblation(const mio::ObjectSet& set, double r) {
  mio::UnionAccumulator acc;
  // Per-point OR (Algorithm 5 as written).
  mio::BiGrid g1(set, r);
  g1.Build();
  mio::Timer t;
  for (mio::ObjectId i = 0; i < set.size(); ++i) {
    acc.Clear();
    for (std::size_t j = 0; j < set[i].points.size(); ++j) {
      acc.Add(g1.EnsureAdj(g1.LargeCellOf(i, j)).adj);
    }
    benchmark_sink += acc.Count();
  }
  double per_point = t.ElapsedSeconds();

  // One OR per distinct cell per object (grouped, the grouping timed).
  mio::BiGrid g2(set, r);
  g2.Build();
  std::vector<mio::CellPoint> points;
  t.Restart();
  for (mio::ObjectId i = 0; i < set.size(); ++i) {
    acc.Clear();
    g2.PointsByCell(i, &points);
    for (std::size_t a = 0; a < points.size(); ++a) {
      if (a == 0 || points[a].cell != points[a - 1].cell) {
        acc.Add(g2.EnsureAdj(points[a].cell).adj);
      }
    }
    benchmark_sink += acc.Count();
  }
  double per_group = t.ElapsedSeconds();
  std::printf("  upper-bounding OR granularity: per-point %s, per-cell %s "
              "(x%.1f) -- the dedup Labeling-2 learns\n",
              mio::bench::Sec(per_point).c_str(),
              mio::bench::Sec(per_group).c_str(),
              per_group > 0 ? per_point / per_group : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  mio::ArgParser args(argc, argv);
  std::vector<double> radii = args.GetDoubleList("r", {4.0});
  std::vector<std::string> names =
      args.GetStringList("datasets", {"neuron", "bird2"});

  mio::bench::Header("Ablations: BIGrid design choices");
  for (const std::string& name : names) {
    mio::datagen::Preset preset;
    if (!mio::datagen::ParsePreset(name, &preset)) continue;
    mio::ObjectSet set =
        mio::datagen::MakePreset(preset, mio::datagen::Scale::kQuick);
    for (double r : radii) {
      std::vector<std::uint32_t> exact = mio::SimpleGridScores(set, r);

      std::printf("\ndataset=%s r=%.1f\n", name.c_str(), r);
      ReportWidthAblation(set, r, exact);
      ReportVerificationOrderAblation(set, r);
      ReportUbGranularityAblation(set, r);
      ReportStopAblation(set, r);

      // The paper's II-B claim: MBR indexing is ineffective for point-set
      // objects. Emptiness near 1.0 = "uselessly large rectangles"; the RT
      // baseline timing shows the consequence.
      {
        double emptiness = mio::MbrEmptinessFraction(set, r);
        mio::Timer t;
        mio::QueryResult rt = mio::RtreeMbrQuery(set, r);
        double rt_time = t.ElapsedSeconds();
        t.Restart();
        mio::MioEngine engine(set);
        mio::QueryResult bg = engine.Query(r);
        std::printf("  MBR indexing (paper II-B): mean MBR emptiness %.1f%%; "
                    "RT %s vs BIGrid %s (answers agree: %s)\n",
                    emptiness * 100.0, mio::bench::Sec(rt_time).c_str(),
                    mio::bench::Sec(t.ElapsedSeconds()).c_str(),
                    rt.best().score == bg.best().score ? "yes" : "NO");
      }
    }
  }
  (void)benchmark_sink;
  return 0;
}
