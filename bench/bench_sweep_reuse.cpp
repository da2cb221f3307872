// Extension bench: the fine-grained threshold sweep workload the paper's
// introduction motivates ("users would utilize MIO queries while varying
// the distance threshold r ... thresholds are usually fine-grained").
// Compares, over a sweep of radii under a shared ceiling:
//   BIGrid            — rebuild everything per query (the paper's mode);
//   BIGrid-label      — label reuse (the paper's §III-D);
//   BIGrid-label+grid — labels plus this library's cached large grid
//                       (cells, postings, memoised b_adj).
//
//   ./bench_sweep_reuse [--datasets=neuron,bird2] [--rbase=4]
//                       [--steps=5] [--full]
#include "bench_common.hpp"

int main(int argc, char** argv) {
  mio::ArgParser args(argc, argv);
  mio::datagen::Scale scale = mio::bench::SelectScale(args);
  double rbase = args.GetDouble("rbase", 4.0);
  int steps = static_cast<int>(args.GetInt("steps", 5));
  std::vector<std::string> names =
      args.GetStringList("datasets", {"neuron", "bird2", "syn"});

  // Fine-grained sweep under one ceiling: rbase, rbase-0.1, ...
  std::vector<double> radii;
  for (int i = 0; i < steps; ++i) radii.push_back(rbase - 0.1 * i);

  mio::bench::Header("Extension: fine-grained sweep, label + grid reuse");
  std::printf("%-10s %-22s %14s %16s\n", "dataset", "mode", "sweep-time[s]",
              "per-query[s]");

  for (const std::string& name : names) {
    mio::datagen::Preset preset;
    if (!mio::datagen::ParsePreset(name, &preset)) continue;
    mio::ObjectSet set = mio::datagen::MakePreset(preset, scale);

    struct Mode {
      const char* label;
      bool use_labels;
      bool reuse_grid;
    };
    const Mode modes[] = {
        {"BIGrid (rebuild)", false, false},
        {"BIGrid-label", true, false},
        {"BIGrid-label+grid", true, true},
    };
    std::uint32_t reference = 0;
    bool reference_set = false;
    for (const Mode& mode : modes) {
      mio::MioEngine engine(set);
      mio::QueryOptions opt;
      opt.use_labels = opt.record_labels = mode.use_labels;
      opt.reuse_grid = mode.reuse_grid;
      mio::Timer t;
      std::uint32_t last_score = 0;
      for (double r : radii) {
        last_score = engine.Query(r, opt).best().score;
      }
      double elapsed = t.ElapsedSeconds();
      std::printf("%-10s %-22s %14s %16s\n", name.c_str(), mode.label,
                  mio::bench::Sec(elapsed).c_str(),
                  mio::bench::Sec(elapsed / radii.size()).c_str());
      // All modes must end the sweep on the same answer.
      if (!reference_set) {
        reference = last_score;
        reference_set = true;
      } else if (last_score != reference) {
        std::printf("ERROR: mode '%s' disagrees (%u vs %u)\n", mode.label,
                    last_score, reference);
        return 1;
      }
    }
  }
  return 0;
}
