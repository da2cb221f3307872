// Appendix A — why BIGrid must be built online. An index pre-built for a
// threshold r' breaks both bounding directions when queried at r != r':
//
//  (i)  r < r': the offline small grid's cells are too wide, so two
//       points sharing a cell are no longer guaranteed to be within r —
//       the "lower bound" is not a lower bound. We count the objects
//       whose offline pseudo-lower-bound exceeds the true score.
//  (ii) r > r': the offline large grid's cells are too narrow, so
//       partners can sit beyond the 27-cell neighbourhood; correctness
//       needs rings of ceil(ceil(r)/ceil(r')) cells, and the accessed
//       cell count grows cubically. We report that blow-up, and the
//       looseness of the resulting upper bound.
//  The online build itself is cheap (the Grid-Mapping row of Table II),
//  so pre-building buys nothing — the paper's conclusion.
//
//   ./bench_appendixA_offline [--datasets=neuron,bird2] [--r=4]
//                             [--rprime=2,8]
#include <cmath>

#include "bench_common.hpp"
#include "bitset/ewah.hpp"
#include "geo/cell_key.hpp"

namespace {

// Pseudo lower bounds from a small grid of width rprime/sqrt(3).
std::vector<std::uint32_t> OfflineLowerBounds(const mio::ObjectSet& set,
                                              double rprime) {
  double w = mio::SmallGridWidth(rprime);
  std::unordered_map<mio::CellKey, mio::Ewah, mio::CellKeyHash> cells;
  for (mio::ObjectId i = 0; i < set.size(); ++i) {
    for (const mio::Point& p : set[i].points) {
      cells[mio::KeyForWidth(p, w)].Set(i);
    }
  }
  std::vector<std::uint32_t> lb(set.size(), 0);
  mio::UnionAccumulator acc;
  for (mio::ObjectId i = 0; i < set.size(); ++i) {
    acc.Clear();
    for (const mio::Point& p : set[i].points) {
      acc.Add(cells[mio::KeyForWidth(p, w)]);
    }
    std::size_t c = acc.Count();
    lb[i] = c > 0 ? static_cast<std::uint32_t>(c - 1) : 0;
  }
  return lb;
}

}  // namespace

int main(int argc, char** argv) {
  mio::ArgParser args(argc, argv);
  double r = args.GetDouble("r", 4.0);
  std::vector<double> rprimes = args.GetDoubleList("rprime", {2.0, 8.0});
  std::vector<std::string> names =
      args.GetStringList("datasets", {"neuron", "bird2"});

  mio::bench::Header("Appendix A: offline BIGrid building is ineffective");
  for (const std::string& name : names) {
    mio::datagen::Preset preset;
    if (!mio::datagen::ParsePreset(name, &preset)) continue;
    mio::ObjectSet set =
        mio::datagen::MakePreset(preset, mio::datagen::Scale::kQuick);
    std::vector<std::uint32_t> exact = mio::SimpleGridScores(set, r);

    std::printf("\ndataset=%s, query r=%.1f\n", name.c_str(), r);
    std::printf("%-10s %-26s %s\n", "r'", "offline small grid (LB)",
                "offline large grid (UB)");
    for (double rp : rprimes) {
      // (i) lower-bound soundness with the offline small grid.
      std::vector<std::uint32_t> lb = OfflineLowerBounds(set, rp);
      std::size_t violations = 0;
      for (mio::ObjectId i = 0; i < set.size(); ++i) {
        if (lb[i] > exact[i]) ++violations;
      }
      // (ii) neighbourhood blow-up for the offline large grid.
      double w_off = mio::LargeGridWidth(rp);
      int rings = static_cast<int>(std::ceil(r / w_off));
      long cells_per_point = (2L * rings + 1) * (2L * rings + 1) *
                             (2L * rings + 1);
      char lbcol[64], ubcol[96];
      if (rp > r) {
        std::snprintf(lbcol, sizeof(lbcol), "UNSOUND: %zu/%zu violations",
                      violations, set.size());
      } else {
        std::snprintf(lbcol, sizeof(lbcol), "sound but loose (w=%0.2f)",
                      mio::SmallGridWidth(rp));
      }
      if (mio::LargeGridWidth(rp) < mio::LargeGridWidth(r)) {
        std::snprintf(ubcol, sizeof(ubcol),
                      "needs %d-cell rings: %ld cells/point (vs 27 online)",
                      rings, cells_per_point);
      } else {
        std::snprintf(ubcol, sizeof(ubcol),
                      "27 cells/point but looser (w=%.0f vs %.0f online)",
                      w_off, mio::LargeGridWidth(r));
      }
      std::printf("%-10.1f %-38s %s\n", rp, lbcol, ubcol);
    }

    // Reference: the online build the paper recommends.
    mio::MioEngine engine(set);
    mio::QueryResult res = engine.Query(r);
    std::printf("online build cost at query time: %s (grid-mapping) of %s "
                "total -- cheap enough to rebuild per query\n",
                mio::bench::Sec(res.stats.phases.grid_mapping).c_str(),
                mio::bench::Sec(res.stats.total_seconds).c_str());
  }
  return 0;
}
