// Shared infrastructure for the experiment harnesses: preset loading,
// algorithm dispatch by name, and fixed-width table printing so every
// bench emits the paper's rows/series in a uniform, grep-friendly format.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/nested_loop.hpp"
#include "baseline/nl_kdtree.hpp"
#include "baseline/rtree_mbr.hpp"
#include "baseline/simple_grid.hpp"
#include "common/argparse.hpp"
#include "common/timer.hpp"
#include "core/mio_engine.hpp"
#include "datagen/presets.hpp"
#include "object/sampling.hpp"
#include "obs/metrics.hpp"
#include "obs/qlog.hpp"

namespace mio {
namespace bench {

/// Datasets selected by --datasets=neuron,bird,... (default: all five).
inline std::vector<datagen::Preset> SelectDatasets(const ArgParser& args) {
  std::vector<std::string> names = args.GetStringList(
      "datasets", {"neuron", "neuron2", "bird", "bird2", "syn"});
  std::vector<datagen::Preset> out;
  for (const std::string& name : names) {
    datagen::Preset p;
    if (datagen::ParsePreset(name, &p)) {
      out.push_back(p);
    } else {
      std::fprintf(stderr, "unknown dataset '%s' (skipped)\n", name.c_str());
    }
  }
  return out;
}

/// --full selects paper-scale sizes; default is quick (laptop) scale.
inline datagen::Scale SelectScale(const ArgParser& args) {
  return args.GetBool("full", false) ? datagen::Scale::kFull
                                     : datagen::Scale::kQuick;
}

/// Runs one algorithm by name. "bigrid-label" expects the engine to
/// already hold labels for ceil(r) (prime it with PrimeLabels below).
inline QueryResult RunAlgorithm(const std::string& algo, MioEngine& engine,
                                const ObjectSet& objects, double r,
                                int threads, std::size_t k = 1) {
  if (algo == "nl") return NestedLoopQuery(objects, r, threads, k);
  if (algo == "nl-kd") return NlKdQuery(objects, r, threads, k);
  if (algo == "sg") return SimpleGridQuery(objects, r, threads, k);
  if (algo == "rt") return RtreeMbrQuery(objects, r, threads, k);
  QueryOptions opt;
  opt.threads = threads;
  opt.k = k;
  if (algo == "bigrid-label") {
    opt.use_labels = true;
  } else if (algo != "bigrid") {
    std::fprintf(stderr, "unknown algorithm '%s', running bigrid\n",
                 algo.c_str());
  }
  return engine.Query(r, opt);
}

/// Executes a label-recording query so that a following "bigrid-label"
/// run finds labels for ceil(r) (the paper's footnote 8 protocol: the
/// plain BIGrid runs output labels as post-processing).
inline void PrimeLabels(MioEngine& engine, double r, int threads) {
  QueryOptions opt;
  opt.threads = threads;
  opt.record_labels = true;
  engine.Query(r, opt);
}

/// Seconds, fixed width, in seconds with ms resolution.
inline std::string Sec(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", s);
  return buf;
}

/// Mebibytes with two decimals.
inline std::string MiB(std::size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

/// Prints a separator + title for one experiment block.
inline void Header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// Machine-readable bench output: when --json-out=FILE is given, each
/// measured run appends one mio-qlog-v1 record (JSONL, "-" for stdout)
/// whose `workload` is the harness name, with `params.scale` set and the
/// metrics snapshot attached. `Begin()` resets the metrics registry so
/// counter/histogram values are per-run, not cumulative across the
/// harness.
class JsonSink {
 public:
  JsonSink(const ArgParser& args, std::string bench)
      : path_(args.GetString("json-out", "")),
        bench_(std::move(bench)),
        scale_(SelectScale(args) == datagen::Scale::kFull ? "full" : "quick") {}

  bool enabled() const { return !path_.empty(); }

  /// Call immediately before the measured region.
  void Begin() const {
    if (enabled()) obs::ResetMetrics();
  }

  /// Call after the measured region; appends one JSONL record.
  void Record(const std::string& dataset, const std::string& algo, double r,
              std::size_t k, int threads, double wall_seconds,
              const QueryStats& stats) const {
    if (!enabled()) return;
    obs::QlogRecord id;
    id.workload = bench_;
    id.dataset = dataset;
    id.algo = algo;
    id.r = r;
    id.k = k;
    id.threads = threads;
    id.scale = scale_;
    id.wall_seconds = wall_seconds;
    QueryResult res;
    res.stats = stats;
    obs::MetricsSnapshot metrics = obs::SnapshotMetrics();
    obs::QlogWriter out;
    Status st = out.Open(path_, /*append=*/true);
    if (st.ok()) st = out.Append(obs::BuildQlogRecord(id, &res, &metrics));
    if (st.ok()) st = out.Close();
    if (!st.ok()) std::fprintf(stderr, "json-out: %s\n", st.ToString().c_str());
  }

 private:
  std::string path_;
  std::string bench_;
  std::string scale_;
};

}  // namespace bench
}  // namespace mio
