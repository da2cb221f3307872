// Fig. 8 — partitioning strategies for the parallel phases, varying the
// number of cores: LB-greedy-d vs LB-hash-p (lower-bounding) and
// UB-greedy-p (cost-based) vs UB-greedy-d (upper-bounding). Besides
// wall-clock (which on this container saturates at the physical core
// count), each strategy's partition balance is reported — a
// hardware-independent proxy for the paper's scaling curves.
//
//   ./bench_fig8_partitioning [--full] [--datasets=neuron,neuron2,bird,bird2]
//                             [--r=4] [--t=1,2,4,8,12]
#include "bench_common.hpp"
#include "core/bigrid.hpp"
#include "core/parallel_phases.hpp"
#include "core/partition.hpp"

namespace {

void ReportLbBalance(const mio::BiGrid& grid, int t) {
  const std::size_t n = grid.objects().size();
  std::vector<std::uint64_t> weights(n);
  for (mio::ObjectId i = 0; i < n; ++i) {
    weights[i] = grid.KeyList(i).size() + 1;
  }
  mio::PartitionQuality q =
      mio::EvaluatePartition(weights, mio::GreedyAssign(weights, t), t);
  std::printf("      LB-greedy-d partition balance @t=%d: %s\n", t,
              q.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  mio::ArgParser args(argc, argv);
  mio::datagen::Scale scale = mio::bench::SelectScale(args);
  double r = args.GetDouble("r", 4.0);
  std::vector<std::int64_t> threads_list = args.GetIntList("t", {1, 2, 4, 8, 12});

  mio::bench::Header("Fig. 8: parallel lower-/upper-bounding strategies");
  std::printf("%-10s %4s %16s %16s %16s %16s\n", "dataset", "t",
              "LB-greedy-d[s]", "LB-hash-p[s]", "UB-greedy-p[s]",
              "UB-greedy-d[s]");

  // The paper's Fig. 8 uses the four real datasets.
  std::vector<mio::datagen::Preset> presets;
  if (args.Has("datasets")) {
    presets = mio::bench::SelectDatasets(args);
  } else {
    presets = {mio::datagen::Preset::kNeuron, mio::datagen::Preset::kNeuron2,
               mio::datagen::Preset::kBird, mio::datagen::Preset::kBird2};
  }
  for (mio::datagen::Preset preset : presets) {
    mio::ObjectSet set = mio::datagen::MakePreset(preset, scale);
    std::string name = mio::datagen::PresetName(preset);

    for (std::int64_t t64 : threads_list) {
      int t = static_cast<int>(t64);

      // Shared grid build (not what Fig. 8 measures).
      mio::BiGrid grid(set, r);
      grid.BuildParallel(t);

      mio::Timer timer;
      mio::ParallelLowerBounding(grid, mio::LbStrategy::kGreedyDivideObjects,
                                 t, false);
      double lb_greedy = timer.ElapsedSeconds();

      timer.Restart();
      mio::ParallelLowerBounding(grid, mio::LbStrategy::kHashPartitionPoints,
                                 t, false);
      double lb_hash = timer.ElapsedSeconds();

      // Upper bounding mutates the lazy adj memo, so rebuild per strategy.
      // UB-greedy-p's time includes grouping each object's points by cell.
      double ub_costs[2] = {0, 0};
      mio::UbStrategy strategies[2] = {mio::UbStrategy::kCostBasedGreedy,
                                       mio::UbStrategy::kGreedyDivideObjects};
      for (int sidx = 0; sidx < 2; ++sidx) {
        mio::BiGrid g2(set, r);
        g2.BuildParallel(t);
        timer.Restart();
        mio::ParallelUpperBounding(g2, 0, strategies[sidx], t, nullptr,
                                   nullptr, nullptr);
        ub_costs[sidx] = timer.ElapsedSeconds();
      }

      std::printf("%-10s %4d %16s %16s %16s %16s\n", name.c_str(), t,
                  mio::bench::Sec(lb_greedy).c_str(),
                  mio::bench::Sec(lb_hash).c_str(),
                  mio::bench::Sec(ub_costs[0]).c_str(),
                  mio::bench::Sec(ub_costs[1]).c_str());
      if (t == threads_list.back()) ReportLbBalance(grid, t);
    }
  }
  return 0;
}
