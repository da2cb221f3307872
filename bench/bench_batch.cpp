// Batch execution (MioEngine::QueryBatch) vs the sequential Query loop:
// a mixed-ceil(r) workload of N queries cycling r = 3, 4.5, 9 (three
// radius classes, like the canonical workload), run twice per dataset —
// once as plain per-query calls that rebuild every grid, once as one
// batch, which is the reuse_grid Query loop in ceil(r)-class order.
// Reports wall time, throughput speedup, and the batch's accounting
// (grid builds saved, posting bytes shared).
//
//   ./bench_batch [--full] [--datasets=...] [--queries=30] [--threads=1]
//                 [--json-out=FILE|-]
#include "bench_common.hpp"

namespace {

/// Folds per-query stats into one record for the JSON sink: phase times
/// and funnel counters sum; total_seconds carries the loop/batch wall.
void Accumulate(mio::QueryStats* agg, const mio::QueryStats& s) {
  agg->phases.label_input += s.phases.label_input;
  agg->phases.grid_mapping += s.phases.grid_mapping;
  agg->phases.lower_bounding += s.phases.lower_bounding;
  agg->phases.upper_bounding += s.phases.upper_bounding;
  agg->phases.verification += s.phases.verification;
  agg->num_candidates += s.num_candidates;
  agg->num_verified += s.num_verified;
  agg->distance_computations += s.distance_computations;
  agg->threads = s.threads;
}

}  // namespace

int main(int argc, char** argv) {
  mio::ArgParser args(argc, argv);
  mio::bench::JsonSink sink(args, "batch");
  const std::size_t queries =
      static_cast<std::size_t>(args.GetInt("queries", 30));
  const int threads = static_cast<int>(args.GetInt("threads", 1));
  const std::vector<double> cycle = args.GetDoubleList("r", {3.0, 4.5, 9.0});

  mio::bench::Header("Batch vs sequential (" + std::to_string(queries) +
                     " queries, mixed ceil(r))");
  std::printf("%-10s %8s %8s %12s %12s %9s %12s %14s\n", "dataset", "queries",
              "classes", "seq [s]", "batch [s]", "speedup", "builds-saved",
              "shared [MiB]");

  for (mio::datagen::Preset preset : mio::bench::SelectDatasets(args)) {
    mio::ObjectSet set = mio::datagen::MakePreset(
        preset, mio::bench::SelectScale(args));
    std::string name = mio::datagen::PresetName(preset);

    std::vector<mio::BatchQuery> batch(queries);
    for (std::size_t i = 0; i < queries; ++i) {
      batch[i].r = cycle[i % cycle.size()];
      batch[i].options.threads = threads;
    }

    // Sequential loop: the status-quo per-query calls (paper-faithful
    // defaults — every query rebuilds both grids).
    double seq_wall = 0.0;
    {
      mio::MioEngine engine(set);
      mio::QueryStats agg;
      sink.Begin();
      mio::Timer timer;
      for (const mio::BatchQuery& q : batch) {
        Accumulate(&agg, engine.Query(q.r, q.options).stats);
      }
      seq_wall = timer.ElapsedSeconds();
      agg.total_seconds = seq_wall;
      sink.Record(name, "sequential", 0.0, 1, threads, seq_wall, agg);
    }

    // The same members as one batch (one cached large grid per class).
    double batch_wall = 0.0;
    mio::BatchStats bstats;
    {
      mio::MioEngine engine(set);
      mio::QueryStats agg;
      sink.Begin();
      mio::Timer timer;
      mio::BatchResult res = engine.QueryBatch(batch);
      batch_wall = timer.ElapsedSeconds();
      for (const mio::QueryResult& r : res.results) {
        Accumulate(&agg, r.stats);
      }
      agg.total_seconds = batch_wall;
      bstats = res.stats;
      sink.Record(name, "batch", 0.0, 1, threads, batch_wall, agg);
    }

    const double speedup = batch_wall > 0.0 ? seq_wall / batch_wall : 0.0;
    std::printf("%-10s %8zu %8zu %12s %12s %8.2fx %12zu %14s\n", name.c_str(),
                queries, bstats.classes, mio::bench::Sec(seq_wall).c_str(),
                mio::bench::Sec(batch_wall).c_str(), speedup,
                bstats.grid_builds_saved,
                mio::bench::MiB(bstats.postings_bytes_shared).c_str());
  }
  return 0;
}
