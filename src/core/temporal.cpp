#include "core/temporal.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "bitset/ewah.hpp"
#include "bitset/plain_bitset.hpp"
#include "common/timer.hpp"
#include "core/upper_bound.hpp"
#include "core/verification.hpp"
#include "geo/cell_key.hpp"

namespace mio {
namespace {

/// Spatial cell key extended with the temporal sub-domain index.
struct TemporalKey {
  CellKey cell;
  std::int64_t sub = 0;

  bool operator==(const TemporalKey& o) const {
    return cell == o.cell && sub == o.sub;
  }
};

struct TemporalKeyHash {
  std::size_t operator()(const TemporalKey& k) const {
    std::size_t h = CellKeyHash{}(k.cell);
    std::uint64_t s = static_cast<std::uint64_t>(k.sub) * 0x9e3779b97f4a7c15ULL;
    return h ^ (s + (h << 6) + (h >> 2));
  }
};

struct TSmallCell {
  Ewah bits;
  ObjectId first_obj = 0;
  ObjectId last_obj = static_cast<ObjectId>(-1);
  std::uint32_t num_objects = 0;
};

struct TPosting {
  Point p;
  double t;
};

struct TLargeCell {
  Ewah bits;
  ObjectId last_obj = static_cast<ObjectId>(-1);
  std::vector<ObjectId> post_obj;
  std::vector<std::uint32_t> post_start;
  std::vector<TPosting> post_points;

  void Add(ObjectId obj, const Point& p, double t) {
    if (post_obj.empty() || post_obj.back() != obj) {
      if (last_obj != obj || post_obj.empty()) bits.Set(obj);
      last_obj = obj;
      post_obj.push_back(obj);
      post_start.push_back(static_cast<std::uint32_t>(post_points.size()));
    }
    post_points.push_back(TPosting{p, t});
  }

  std::pair<std::uint32_t, std::uint32_t> Range(ObjectId obj) const {
    auto it = std::lower_bound(post_obj.begin(), post_obj.end(), obj);
    if (it == post_obj.end() || *it != obj) return {0, 0};
    std::size_t idx = static_cast<std::size_t>(it - post_obj.begin());
    std::uint32_t begin = post_start[idx];
    std::uint32_t end = idx + 1 < post_start.size()
                            ? post_start[idx + 1]
                            : static_cast<std::uint32_t>(post_points.size());
    return {begin, end};
  }
};

/// BIGrid over (space x time sub-domains) for one (r, delta) query.
class TemporalBiGrid {
 public:
  TemporalBiGrid(const ObjectSet& objects, double r, double delta)
      : objects_(objects),
        r_(r),
        delta_(delta),
        small_width_(SmallGridWidth(r)),
        large_width_(LargeGridWidth(r)) {
    if (delta_ == 0.0) BuildTimeIndex();
    Build();
  }

  std::int64_t SubdomainOf(double t) const {
    if (delta_ > 0.0) {
      return static_cast<std::int64_t>(std::floor(t / delta_));
    }
    return time_index_.at(t);  // delta = 0: one sub-domain per timestamp
  }

  /// Sub-domains a point in sub-domain s must probe: s-1..s+1 for
  /// delta > 0, s only for delta = 0 (Appendix B).
  void ForEachSubNeighbor(std::int64_t s, auto&& f) const {
    if (delta_ > 0.0) {
      for (std::int64_t d = -1; d <= 1; ++d) f(s + d);
    } else {
      f(s);
    }
  }

  const ObjectSet& objects_;
  double r_;
  double delta_;
  double small_width_;
  double large_width_;

  std::unordered_map<TemporalKey, TSmallCell, TemporalKeyHash> small_;
  std::unordered_map<TemporalKey, TLargeCell, TemporalKeyHash> large_;
  std::vector<std::vector<TemporalKey>> key_lists_;

 private:
  void BuildTimeIndex() {
    std::map<double, std::int64_t> ids;
    for (const Object& o : objects_.objects()) {
      for (double t : o.times) ids.emplace(t, 0);
    }
    std::int64_t next = 0;
    for (auto& [t, id] : ids) id = next++;
    time_index_ = std::move(ids);
  }

  void Build() {
    const std::size_t n = objects_.size();
    key_lists_.assign(n, {});
    for (ObjectId i = 0; i < n; ++i) {
      const Object& o = objects_[i];
      for (std::size_t j = 0; j < o.points.size(); ++j) {
        const Point& p = o.points[j];
        double t = o.times[j];
        std::int64_t s = SubdomainOf(t);

        TemporalKey ks{KeyForWidth(p, small_width_), s};
        TSmallCell& sc = small_[ks];
        if (sc.last_obj != i || sc.num_objects == 0) {
          sc.last_obj = i;
          sc.bits.Set(i);
          ++sc.num_objects;
          if (sc.num_objects == 1) {
            sc.first_obj = i;
          } else {
            if (sc.num_objects == 2) key_lists_[sc.first_obj].push_back(ks);
            key_lists_[i].push_back(ks);
          }
        }

        TemporalKey kl{KeyForWidth(p, large_width_), s};
        large_[kl].Add(i, p, t);
      }
    }
  }

  std::map<double, std::int64_t> time_index_;
};

/// Neighbourhood union over space x time; memoised per key.
class TemporalAdj {
 public:
  explicit TemporalAdj(const TemporalBiGrid& grid) : grid_(grid) {}

  const Ewah& Get(const TemporalKey& k) {
    auto it = memo_.find(k);
    if (it != memo_.end()) return it->second;
    acc_.Clear();
    grid_.ForEachSubNeighbor(k.sub, [&](std::int64_t s) {
      ForEachNeighbor(k.cell, /*include_self=*/true, [&](const CellKey& ck) {
        auto cit = grid_.large_.find(TemporalKey{ck, s});
        if (cit != grid_.large_.end()) acc_.Add(cit->second.bits);
      });
    });
    return memo_.emplace(k, acc_.ToEwah()).first->second;
  }

 private:
  const TemporalBiGrid& grid_;
  std::unordered_map<TemporalKey, Ewah, TemporalKeyHash> memo_;
  UnionAccumulator acc_;
};

/// The temporal query's domain: CheckQueryDomain at both grid widths,
/// one finite timestamp per point on every object, and a finite
/// delta >= 0 whose sub-domain index floor(t / delta), cast to int64 and
/// walked ±1, stays in range.
Status CheckTemporalDomain(const ObjectSet& objects, double r,
                           double delta) {
  MIO_RETURN_NOT_OK(CheckQueryDomain(r, objects.CoordinateRange(),
                                     {SmallGridWidth(r), LargeGridWidth(r)}));
  if (!(delta >= 0.0 && std::isfinite(delta))) {
    return Status::InvalidArgument("delta must be finite and >= 0, got " +
                                   std::to_string(delta));
  }
  double max_abs_t = 0.0;
  for (ObjectId i = 0; i < objects.size(); ++i) {
    const Object& o = objects[i];
    if (o.times.size() != o.points.size()) {
      return Status::InvalidArgument(
          "temporal query needs one timestamp per point; object " +
          std::to_string(i) + " has " + std::to_string(o.times.size()) +
          " for " + std::to_string(o.points.size()) + " points");
    }
    for (double t : o.times) {
      if (!std::isfinite(t)) {
        return Status::InvalidArgument("object " + std::to_string(i) +
                                       " has a non-finite timestamp");
      }
      max_abs_t = std::max(max_abs_t, std::fabs(t));
    }
  }
  // Negated, so an infinite quotient (a tiny delta) fails too.
  if (delta > 0.0 && !(std::floor(max_abs_t / delta) + 1.0 < 0x1p63)) {
    return Status::InvalidArgument(
        "delta " + std::to_string(delta) +
        " too small for the time range: sub-domain index overflows int64");
  }
  return Status::OK();
}

std::uint32_t TemporalExactScore(const TemporalBiGrid& grid, TemporalAdj& adj,
                                 ObjectId i, std::size_t* dist_comps) {
  const Object& o = grid.objects_[i];
  const double r2 = grid.r_ * grid.r_;
  PlainBitset acc(grid.objects_.size());
  acc.Set(i);

  for (std::size_t j = 0; j < o.points.size(); ++j) {
    const Point& p = o.points[j];
    double t = o.times[j];
    std::int64_t s = grid.SubdomainOf(t);
    TemporalKey key{KeyForWidth(p, grid.large_width_), s};

    PlainBitset b = adj.Get(key).ToPlain();
    b.AndNotWith(acc);
    std::size_t remaining = b.Count();
    if (remaining == 0) continue;

    auto scan = [&](const TemporalKey& tk) -> bool {
      auto cit = grid.large_.find(tk);
      if (cit == grid.large_.end()) return true;
      const TLargeCell& cell = cit->second;
      for (ObjectId obj : cell.post_obj) {
        if (!b.Test(obj)) continue;
        auto [begin, end] = cell.Range(obj);
        for (std::uint32_t idx = begin; idx < end; ++idx) {
          const TPosting& q = cell.post_points[idx];
          if (dist_comps != nullptr) ++*dist_comps;
          if (SquaredDistance(p, q.p) <= r2 &&
              std::abs(t - q.t) <= grid.delta_) {
            acc.Set(obj);
            b.Clear(obj);
            --remaining;
            break;
          }
        }
        if (remaining == 0) return false;
      }
      return true;
    };

    bool stop = false;
    grid.ForEachSubNeighbor(s, [&](std::int64_t ns) {
      if (stop) return;
      ForEachNeighbor(key.cell, /*include_self=*/true, [&](const CellKey& ck) {
        if (!stop) stop = !scan(TemporalKey{ck, ns});
      });
    });
  }
  std::size_t count = acc.Count();
  return count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
}

}  // namespace

QueryResult TemporalMioQuery(const ObjectSet& objects, double r, double delta,
                             std::size_t k) {
  QueryResult res;
  res.status = CheckTemporalDomain(objects, r, delta);
  if (!res.status.ok() || objects.empty()) return res;
  k = std::min(std::max<std::size_t>(k, 1), objects.size());
  Timer total;

  // Build (GRID-MAPPING over space x time).
  Timer phase;
  TemporalBiGrid grid(objects, r, delta);
  res.stats.phases.grid_mapping = phase.ElapsedSeconds();
  res.stats.cells_small = grid.small_.size();
  res.stats.cells_large = grid.large_.size();

  const std::size_t n = objects.size();

  // Lower bounds from same-sub-domain small cells.
  phase.Restart();
  std::vector<std::uint32_t> tau_low(n, 0);
  std::uint32_t tau_low_kth = 0;
  UnionAccumulator acc;
  for (ObjectId i = 0; i < n; ++i) {
    acc.Clear();
    for (const TemporalKey& key : grid.key_lists_[i]) {
      acc.Add(grid.small_.at(key).bits);
    }
    std::size_t count = acc.Count();
    tau_low[i] = count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
  }
  {
    std::vector<std::uint32_t> copy = tau_low;
    std::nth_element(copy.begin(), copy.begin() + (k - 1), copy.end(),
                     std::greater<>());
    tau_low_kth = copy[k - 1];
  }
  res.stats.tau_low_max = *std::max_element(tau_low.begin(), tau_low.end());
  res.stats.phases.lower_bounding = phase.ElapsedSeconds();

  // Upper bounds from the space x time neighbourhood unions.
  phase.Restart();
  TemporalAdj adj(grid);
  std::vector<std::uint32_t> tau_upp(n, 0);
  std::vector<ObjectId> candidates;
  for (ObjectId i = 0; i < n; ++i) {
    const Object& o = objects[i];
    acc.Clear();
    for (std::size_t j = 0; j < o.points.size(); ++j) {
      TemporalKey key{KeyForWidth(o.points[j], grid.large_width_),
                      grid.SubdomainOf(o.times[j])};
      acc.Add(adj.Get(key));
    }
    std::size_t count = acc.Count();
    tau_upp[i] = count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
    if (tau_upp[i] >= tau_low_kth) candidates.push_back(i);
  }
  // The same queue order as the spatial engine, with this grid's tau_low.
  SortCandidates(tau_upp, tau_low, &candidates);
  res.stats.num_candidates = candidates.size();
  res.stats.phases.upper_bounding = phase.ElapsedSeconds();

  // Best-first verification with early termination.
  phase.Restart();
  TopKTracker tracker(k);
  for (ObjectId i : candidates) {
    if (static_cast<long long>(tau_upp[i]) <= tracker.Threshold()) break;
    std::uint32_t score =
        TemporalExactScore(grid, adj, i, &res.stats.distance_computations);
    ++res.stats.num_verified;
    tracker.Offer(i, score);
  }
  res.topk = tracker.Sorted();
  res.stats.phases.verification = phase.ElapsedSeconds();
  res.stats.total_seconds = total.ElapsedSeconds();
  return res;
}

std::vector<std::uint32_t> TemporalBruteForceScores(const ObjectSet& objects,
                                                    double r, double delta) {
  const std::size_t n = objects.size();
  const double r2 = r * r;
  std::vector<std::uint32_t> tau(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const Object& a = objects[static_cast<ObjectId>(i)];
      const Object& b = objects[static_cast<ObjectId>(j)];
      bool hit = false;
      for (std::size_t pi = 0; pi < a.points.size() && !hit; ++pi) {
        for (std::size_t pj = 0; pj < b.points.size(); ++pj) {
          if (SquaredDistance(a.points[pi], b.points[pj]) <= r2 &&
              std::abs(a.times[pi] - b.times[pj]) <= delta) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        ++tau[i];
        ++tau[j];
      }
    }
  }
  return tau;
}

}  // namespace mio
