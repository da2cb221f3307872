// mio — command-line front end for the library. Lets a user generate or
// load datasets, inspect them, and run MIO queries (any algorithm, any
// variant) without writing C++.
//
//   mio generate --preset=bird2 --scale=quick --out=birds.bin
//   mio stats    --in=birds.bin
//   mio query    --in=birds.bin --r=4 --k=5 --threads=4 --algo=bigrid
//   mio sweep    --in=birds.bin --r=4,4.2,4.4 --labels=./labels
//   mio profile  --in=birds.bin --r=4 --warmup=1 --runs=5
//   mio explain  --in=birds.bin --r=4
//   mio run-workload --spec=work.spec --in=birds.bin --qlog=run.jsonl
//   mio qlog report  --in=run.jsonl
//   mio convert  --in=birds.bin --out=birds.txt
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/nested_loop.hpp"
#include "baseline/nl_kdtree.hpp"
#include "baseline/rtree_mbr.hpp"
#include "baseline/simple_grid.hpp"
#include "baseline/theoretical.hpp"
#include "common/argparse.hpp"
#include "common/memory_tracker.hpp"
#include "common/omp_utils.hpp"
#include "common/timer.hpp"
#include "core/mio_engine.hpp"
#include "core/temporal.hpp"
#include "datagen/presets.hpp"
#include "geo/kernels.hpp"
#include "io/dataset_io.hpp"
#include "io/importers.hpp"
#include "object/spatial_sort.hpp"
#include "obs/exit_flush.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/qlog.hpp"
#include "obs/openmetrics.hpp"
#include "obs/stats_sink.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "workload/workload_runner.hpp"
#include "workload/workload_spec.hpp"

namespace {

void Usage() {
  std::printf(
      "mio <command> [flags]\n"
      "\n"
      "commands:\n"
      "  generate  --preset=neuron|neuron2|bird|bird2|syn [--scale=quick|full]\n"
      "            [--seed=N] --out=FILE [--format=binary|text]\n"
      "  stats     --in=FILE\n"
      "  query     --in=FILE --r=R [--k=K] [--threads=T] [--delta=D]\n"
      "            [--algo=bigrid|nl|nl-kd|sg|rt|theoretical] [--labels=DIR]\n"
      "            [--deadline-ms=MS] [--memory-budget-mb=MB]\n"
      "            [--trace-out=FILE] [--stats-json=FILE|-]\n"
      "  query     --connect=SOCKET --r=R [--k=K] [--threads=T]\n"
      "            [--use-labels] [--deadline-ms=MS] [--no-coalesce]\n"
      "            [--attempts=N] [--backoff-ms=MS]\n"
      "            (sends the query to a running `mio serve`; Overloaded\n"
      "             refusals retry with jittered backoff honoring the\n"
      "             server's retry-after hint)\n"
      "  serve     --in=FILE --socket=PATH [--workers=N] [--max-queue=N]\n"
      "            [--max-queued-cost=N] [--retry-after-ms=MS] [--cache=N]\n"
      "            [--drain-deadline-ms=MS] [--qlog=FILE]\n"
      "            [--trace-dir=DIR] [--tail-threshold-ms=MS]\n"
      "            [--tail-slowest=N] [--labels=DIR] [--metrics-out=FILE]\n"
      "            [--telemetry-interval-ms=MS]\n"
      "            (long-lived query server on a Unix socket: bounded\n"
      "             admission with overload shedding, request coalescing\n"
      "             + result cache, graceful drain on SIGTERM — exit 0\n"
      "             after a clean drain, 9 when the drain deadline forced\n"
      "             cancellation; --qlog writes one record per query\n"
      "             request, refusals included, --trace-dir keeps Chrome\n"
      "             traces for tail-sampled requests)\n"
      "  top       --connect=SOCKET [--interval-ms=MS] [--once]\n"
      "            [--count=N]\n"
      "            (live terminal view of a running `mio serve`: queue\n"
      "             depth, shedding ladder stage, latency percentiles,\n"
      "             per-client request counts — refreshes until\n"
      "             interrupted; --once prints a single snapshot)\n"
      "  sweep     --in=FILE --r=R1,R2,... [--k=K] [--threads=T] [--labels=DIR]\n"
      "            [--trace-out=FILE]\n"
      "  profile   --in=FILE --r=R [--k=K] [--threads=T] [--warmup=N]\n"
      "            [--runs=M] [--labels=DIR] [--out=FILE|-]\n"
      "            (repeated measured runs: one mio-qlog-v1 record per run,\n"
      "             with hardware counters when the PMU is available —\n"
      "             MIO_PMU=off forces the timing tier — then the qlog\n"
      "             report of the runs, on stderr when --out is stdout)\n"
      "  explain   --in=FILE --r=R [--k=K] [--threads=T] [--labels=DIR]\n"
      "            (one query, human-readable pruning-funnel report)\n"
      "  run-workload --spec=FILE --connect=SOCKET [--attempts=N]\n"
      "            [--backoff-ms=MS]\n"
      "            (replays the spec's queries against a running server\n"
      "             instead of an in-process engine)\n"
      "  run-workload --spec=FILE [--in=FILE] [--qlog=FILE|-] [--labels=DIR]\n"
      "            [--trace-dir=DIR] [--tail-threshold-ms=MS]\n"
      "            [--tail-slowest=N] [--batch] [--metrics-out=FILE]\n"
      "            [--telemetry-interval-ms=MS] [--verbose]\n"
      "            (runs the spec's query sequence through one engine:\n"
      "             one mio-qlog-v1 JSONL record per query; Chrome traces\n"
      "             are kept only for tail queries; --batch folds the\n"
      "             queries into one QueryBatch call: reuse_grid\n"
      "             queries in ceil(r)-class order, sharing each class's\n"
      "             cached grid;\n"
      "             --metrics-out keeps an OpenMetrics scrape file fresh\n"
      "             via a background sampler, atomically rewritten every\n"
      "             --telemetry-interval-ms, default 1000)\n"
      "  qlog report --in=FILE [--slowest=N] [--trace-dir=DIR]\n"
      "            [--json=FILE|-] [--slo=SPECFILE]\n"
      "            (aggregates a qlog: p50/p95/p99 latency, per-phase\n"
      "             totals, label hit rate per ceil(r) class, slowest-N;\n"
      "             --slo evaluates the spec's latency objectives and\n"
      "             exits 1 when any is missed)\n"
      "  qlog diff BASELINE CANDIDATE [--threshold=F] [--json=FILE|-]\n"
      "            (compares two qlogs: wall p50/p95/p99 and the median\n"
      "             wall of every shared configuration, gated at\n"
      "             --threshold (default 0.10); phase shares, pruning-\n"
      "             funnel shape, label hit rate; exits 1 on any\n"
      "             regression, 2 when no configuration is shared)\n"
      "  convert   --in=FILE --out=FILE [--format=binary|text]\n"
      "  import-swc --dir=DIR --out=FILE      (NeuroMorpho morphologies)\n"
      "  import-csv --in=FILE --out=FILE [--id-col=id --x-col=x --y-col=y]\n"
      "             [--z-col=C] [--time-col=C] [--delim=,] [--split=M]\n");
}

/// Reports a failure and maps it to the process exit code for its status
/// code (docs/ROBUSTNESS.md: 0 = OK, distinct nonzero per StatusCode).
int StatusExit(const mio::Status& st) {
  std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return mio::ExitCodeFor(st.code());
}

/// Range-checked integer flag: `--name` in [lo, hi] into `*out`, or
/// `fallback` when absent.
template <typename T>
mio::Status IntFlag(const mio::ArgParser& args, const char* name,
                    std::int64_t fallback, std::int64_t lo, std::int64_t hi,
                    T* out) {
  mio::Result<std::int64_t> v = args.GetIntInRange(name, fallback, lo, hi);
  if (!v.ok()) return v.status();
  *out = static_cast<T>(v.value());
  return mio::Status::OK();
}

/// Range-checked number flag: a finite `--name` in [lo, hi] into `*out`,
/// or `fallback` when absent.
mio::Status DoubleFlag(const mio::ArgParser& args, const char* name,
                       double fallback, double lo, double hi, double* out) {
  mio::Result<double> v = args.GetDoubleInRange(name, fallback, lo, hi);
  if (!v.ok()) return v.status();
  *out = v.value();
  return mio::Status::OK();
}

/// Range-checked millisecond flag: a finite `--name` in [0, 1e9].
mio::Status MsFlag(const mio::ArgParser& args, const char* name,
                   double fallback, double* out) {
  return DoubleFlag(args, name, fallback, 0.0, 1e9, out);
}

constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();

/// `--k` and `--threads`, range-checked: k >= 0, as `mio serve` accepts
/// (0 and 1 both ask for the single most interactive object), and threads
/// at most kMaxRequestedThreads, where <= 0 means every core.
mio::Status ParseKAndThreads(const mio::ArgParser& args, std::size_t* k,
                             int* threads) {
  MIO_RETURN_NOT_OK(
      IntFlag(args, "k", 1, 0, std::numeric_limits<std::int64_t>::max(), k));
  return IntFlag(args, "threads", 1, std::numeric_limits<int>::min(),
                 mio::kMaxRequestedThreads, threads);
}

bool EndsWith(const std::string& s, const char* suffix) {
  std::size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

mio::Result<mio::ObjectSet> LoadAny(const std::string& path) {
  if (EndsWith(path, ".txt")) return mio::LoadDatasetText(path);
  return mio::LoadDatasetBinary(path);
}

mio::Status SaveAny(const mio::ObjectSet& set, const std::string& path,
                    const std::string& format) {
  if (format == "text" || (format.empty() && EndsWith(path, ".txt"))) {
    return mio::SaveDatasetText(set, path);
  }
  return mio::SaveDatasetBinary(set, path);
}

int CmdGenerate(const mio::ArgParser& args) {
  mio::datagen::Preset preset;
  std::string name = args.GetString("preset", "bird2");
  if (!mio::datagen::ParsePreset(name, &preset)) {
    std::fprintf(stderr, "unknown preset '%s'\n", name.c_str());
    return 1;
  }
  mio::datagen::Scale scale = args.GetString("scale", "quick") == "full"
                                  ? mio::datagen::Scale::kFull
                                  : mio::datagen::Scale::kQuick;
  std::string out = args.GetString("out", name + ".bin");
  mio::Timer t;
  mio::ObjectSet set = mio::datagen::MakePreset(
      preset, scale, static_cast<std::uint64_t>(args.GetInt("seed", 42)));
  mio::Status st = SaveAny(set, out, args.GetString("format", ""));
  if (!st.ok()) return StatusExit(st);
  std::printf("wrote %s: %s (%.2fs)\n", out.c_str(),
              set.Stats().ToString().c_str(), t.ElapsedSeconds());
  return 0;
}

int CmdStats(const mio::ArgParser& args) {
  mio::Result<mio::ObjectSet> set = LoadAny(args.GetString("in", ""));
  if (!set.ok()) return StatusExit(set.status());
  const mio::ObjectSet& objects = set.value();
  std::printf("%s\n", objects.Stats().ToString().c_str());
  mio::Aabb box = objects.Bounds();
  std::printf("bounds: [%.2f,%.2f]x[%.2f,%.2f]x[%.2f,%.2f]%s\n", box.min.x,
              box.max.x, box.min.y, box.max.y, box.min.z, box.max.z,
              objects.IsPlanar() ? " (planar)" : "");
  std::printf("in-memory size: %s\n",
              mio::FormatBytes(objects.MemoryUsageBytes()).c_str());
  return 0;
}

void PrintResult(const mio::QueryResult& res, double elapsed) {
  for (const mio::ScoredObject& s : res.topk) {
    std::printf("object %u  tau=%u\n", s.id, s.score);
  }
  if (!res.complete) {
    std::printf("INCOMPLETE (%s) — answer above is best-so-far\n",
                res.status.ToString().c_str());
  } else if (!res.status.ok()) {
    std::fprintf(stderr, "%s\n", res.status.ToString().c_str());
  }
  if (res.stats.degradation_level > 0) {
    std::printf("degraded: level %u (memory budget shed optional work)\n",
                res.stats.degradation_level);
  }
  const mio::QueryStats& st = res.stats;
  std::printf("time %.4fs (grid %.4f | lb %.4f | ub %.4f | verify %.4f)\n",
              elapsed, st.phases.grid_mapping, st.phases.lower_bounding,
              st.phases.upper_bounding, st.phases.verification);
  if (st.num_candidates > 0) {
    std::printf("candidates %zu, verified %zu, index %s\n", st.num_candidates,
                st.num_verified, mio::FormatBytes(st.index_memory_bytes).c_str());
  }
}

// Shared tail of `query`/`sweep`: dump the collected trace and/or the
// query's mio-qlog-v1 record (--stats-json) if the user asked for them.
// `id` is the query's identity (see obs::BuildQlogRecord). The record
// carries the metrics snapshot: each command is a one-shot process, so
// the registry holds only this run's counts.
int EmitObservability(const mio::ArgParser& args, const mio::QueryResult& res,
                      mio::obs::QlogRecord id) {
  if (args.Has("trace-out")) {
    std::string path = args.GetString("trace-out", "trace.json");
    mio::Status st = mio::obs::Tracer::Instance().WriteChromeTrace(path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::size_t dropped = mio::obs::Tracer::Instance().DroppedEvents();
    std::printf("trace: %s (%zu threads%s)\n", path.c_str(),
                mio::obs::Tracer::Instance().NumThreads(),
                dropped > 0 ? ", ring overflowed" : "");
  }
  if (args.Has("stats-json")) {
    std::string path = args.GetString("stats-json", "-");
    mio::obs::MetricsSnapshot metrics = mio::obs::SnapshotMetrics();
    mio::obs::QlogWriter out;
    mio::Status st = out.Open(path);
    if (st.ok()) {
      st = out.Append(mio::obs::BuildQlogRecord(std::move(id), &res, &metrics));
    }
    if (st.ok()) st = out.Close();
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    if (path != "-") std::printf("stats: %s\n", path.c_str());
  }
  return 0;
}

// Arms the exit-time flush backstop so an interrupted query still leaves
// valid --trace-out / --stats-json artifacts: the stats file gets the
// run's record marked Cancelled, incomplete and truncated. Disarm after
// the normal emission succeeds.
void ArmObservabilityBackstop(const mio::ArgParser& args,
                              mio::obs::QlogRecord id) {
  if (!args.Has("trace-out") && !args.Has("stats-json")) return;
  mio::obs::ExitFlushConfig cfg;
  if (args.Has("trace-out")) {
    cfg.trace_path = args.GetString("trace-out", "trace.json");
  }
  if (args.Has("stats-json")) {
    cfg.stats_path = args.GetString("stats-json", "-");
    cfg.stats_document = mio::obs::InterruptedRecordLine(std::move(id));
  }
  mio::obs::ArmExitFlush(std::move(cfg));
}

/// Builds the client config shared by `query --connect` and
/// `run-workload --connect`.
mio::Status ClientConfigFromArgs(const mio::ArgParser& args,
                                 mio::server::ClientConfig* cfg) {
  cfg->socket_path = args.GetString("connect", "");
  MIO_RETURN_NOT_OK(IntFlag(args, "attempts", 5, 1, 100, &cfg->attempts));
  return MsFlag(args, "backoff-ms", 10.0, &cfg->backoff_base_ms);
}

/// `mio query --connect=SOCKET`: runs the query on a `mio serve` process
/// instead of an in-process engine.
int CmdQueryConnect(const mio::ArgParser& args) {
  mio::server::ClientConfig cfg;
  mio::server::ServeRequest req;
  req.id = "cli";
  req.op = "query";
  req.r = args.GetDouble("r", 4.0);
  std::size_t k = 1;
  for (const mio::Status& st : {ClientConfigFromArgs(args, &cfg),
                                ParseKAndThreads(args, &k, &req.threads)}) {
    if (!st.ok()) return StatusExit(st);
  }
  req.k = k;
  req.use_labels = args.Has("use-labels");
  req.deadline_ms = args.GetDouble("deadline-ms", 0.0);
  req.no_coalesce = args.Has("no-coalesce");
  mio::server::ServeResponse res;
  mio::Timer t;
  mio::Status st = mio::server::Call(cfg, req, &res);
  if (!st.ok() && st.code() != mio::StatusCode::kOverloaded) {
    return StatusExit(st);
  }
  for (const mio::ScoredObject& s : res.topk) {
    std::printf("object %u  tau=%u\n", s.id, s.score);
  }
  if (res.coalesced) std::printf("(coalesced with an identical query)\n");
  if (res.cached) std::printf("(served from the result cache)\n");
  if (res.status != mio::StatusCode::kOk) {
    std::fprintf(stderr, "%s: %s\n", mio::StatusCodeName(res.status),
                 res.error.c_str());
    if (res.status == mio::StatusCode::kOverloaded) {
      std::fprintf(stderr, "retry after %.0f ms\n", res.retry_after_ms);
    }
  }
  std::printf("time %.4fs (server %.4fs)\n", t.ElapsedSeconds(),
              res.wall_seconds);
  return mio::ExitCodeFor(res.status);
}

int CmdServe(const mio::ArgParser& args) {
  if (!args.Has("socket")) {
    std::fprintf(stderr, "serve: --socket=PATH is required\n");
    return 1;
  }
  // Every numeric flag is checked before the dataset loads and the
  // socket binds: a wrapped --max-queue=-1 would disable overload
  // refusal, a NaN drain deadline would reach a float->int cast.
  mio::server::ServerConfig cfg;
  int telemetry_interval_ms = 1000;
  double tail_threshold_ms = 0.0;
  for (const mio::Status& st :
       {IntFlag(args, "workers", 2, 1, 256, &cfg.workers),
        IntFlag(args, "max-queue", 16, 1, kInt32Max, &cfg.admission.max_queue),
        IntFlag(args, "max-queued-cost", 0, 0, kInt32Max,
                &cfg.admission.max_queued_cost),
        IntFlag(args, "cache", 32, 0, kInt32Max, &cfg.cache_capacity),
        IntFlag(args, "tail-slowest", 0, 0, kInt32Max, &cfg.tail.slowest_n),
        IntFlag(args, "telemetry-interval-ms", 1000, 10, 3600000,
                &telemetry_interval_ms),
        MsFlag(args, "retry-after-ms", 25.0,
               &cfg.admission.retry_after_base_ms),
        MsFlag(args, "drain-deadline-ms", 5000.0, &cfg.drain_deadline_ms),
        MsFlag(args, "tail-threshold-ms", 0.0, &tail_threshold_ms)}) {
    if (!st.ok()) return StatusExit(st);
  }
  cfg.tail.threshold_seconds = tail_threshold_ms / 1000.0;

  std::string dataset = args.GetString("in", "");
  mio::Result<mio::ObjectSet> loaded = LoadAny(dataset);
  if (!loaded.ok()) return StatusExit(loaded.status());
  mio::obs::ResetMetrics();
  mio::MemoryTracker::Instance().Observe("dataset",
                                         loaded.value().MemoryUsageBytes());

  cfg.socket_path = args.GetString("socket", "");
  cfg.qlog_path = args.GetString("qlog", "");
  cfg.trace_dir = args.GetString("trace-dir", "");
  cfg.label_dir = args.GetString("labels", "");
  cfg.dataset_name = dataset;

  mio::server::MioServer server(loaded.value(), cfg);
  mio::Status st = server.Start();
  if (!st.ok()) return StatusExit(st);

  // Continuous telemetry + the exit-flush backstop, same contract as
  // run-workload: the scrape file stays fresh while serving and a final
  // exposition lands even on an abnormal exit.
  std::string metrics_out = args.GetString("metrics-out", "");
  std::optional<mio::obs::TelemetrySampler> telemetry;
  if (!metrics_out.empty()) {
    mio::obs::TelemetryConfig tcfg;
    tcfg.interval_ms = telemetry_interval_ms;
    tcfg.metrics_path = metrics_out;
    telemetry.emplace(std::move(tcfg));
    telemetry->Start();
    mio::obs::ExitFlushConfig flush_cfg;
    flush_cfg.metrics_path = metrics_out;
    mio::obs::ArmExitFlush(std::move(flush_cfg));
  }
  // AFTER ArmExitFlush: the flusher's signal handlers re-raise and kill
  // the process; the server's must win so SIGTERM drains instead.
  server.InstallSignalHandlers();

  std::printf("serving %s (%zu objects) on %s — %d workers, queue %zu\n",
              dataset.c_str(), loaded.value().size(),
              cfg.socket_path.c_str(), cfg.workers,
              cfg.admission.max_queue);
  std::fflush(stdout);
  st = server.Serve();
  if (telemetry) {
    telemetry->Stop();  // takes a final sample, rewrites the scrape file
    mio::obs::DisarmExitFlush();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
  }
  return mio::ExitCodeFor(st.code());
}

/// Renders one "mio-server-stats-v1" snapshot as a compact terminal
/// view. Unknown keys are ignored (the stats payload may grow).
void RenderServerStats(const mio::obs::JsonValue& doc) {
  const double uptime = doc.GetDouble("uptime_seconds", 0.0);
  std::printf("mio serve — up %.0fs%s\n", uptime,
              doc.GetBool("draining", false) ? "  [DRAINING]" : "");
  std::printf(
      "queue %llu/%llu (cost %llu)  ladder stage %llu  inflight %llu  "
      "sessions %llu  workers %llu\n",
      static_cast<unsigned long long>(doc.GetUInt("queue_depth")),
      static_cast<unsigned long long>(doc.GetUInt("queue_capacity")),
      static_cast<unsigned long long>(doc.GetUInt("queued_cost")),
      static_cast<unsigned long long>(doc.GetUInt("ladder_stage")),
      static_cast<unsigned long long>(doc.GetUInt("inflight")),
      static_cast<unsigned long long>(doc.GetUInt("sessions")),
      static_cast<unsigned long long>(doc.GetUInt("workers")));
  std::printf("objects %llu  cache entries %llu (hit rate %.1f%%)\n",
              static_cast<unsigned long long>(doc.GetUInt("objects")),
              static_cast<unsigned long long>(doc.GetUInt("cache_entries")),
              doc.GetDouble("cache_hit_rate", 0.0) * 100.0);
  if (const mio::obs::JsonValue* c = doc.Find("counters")) {
    std::printf(
        "requests %llu  refused %llu  coalesced %llu  cache %llu/%llu  "
        "shed %llu+%llu  io errors %llu\n",
        static_cast<unsigned long long>(c->GetUInt("requests")),
        static_cast<unsigned long long>(c->GetUInt("refused")),
        static_cast<unsigned long long>(c->GetUInt("coalesced")),
        static_cast<unsigned long long>(c->GetUInt("cache_hits")),
        static_cast<unsigned long long>(c->GetUInt("cache_misses")),
        static_cast<unsigned long long>(c->GetUInt("shed_labels")),
        static_cast<unsigned long long>(c->GetUInt("shed_grid_cache")),
        static_cast<unsigned long long>(c->GetUInt("io_errors")));
  }
  auto latency_line = [&doc](const char* key, const char* name) {
    const mio::obs::JsonValue* h = doc.Find(key);
    if (h == nullptr) return;
    std::printf("%-10s p50 %8.2fms  p95 %8.2fms  p99 %8.2fms  max %8.2fms"
                "  (n=%llu)\n",
                name, h->GetDouble("p50_ms"), h->GetDouble("p95_ms"),
                h->GetDouble("p99_ms"), h->GetDouble("max_ms"),
                static_cast<unsigned long long>(h->GetUInt("count")));
  };
  latency_line("queue_wait", "queue wait");
  latency_line("e2e", "end-to-end");
  if (const mio::obs::JsonValue* clients = doc.Find("clients")) {
    if (!clients->elements().empty()) {
      std::printf("%-10s %10s %10s %10s %10s\n", "client", "requests",
                  "refused", "coalesced", "cached");
      for (const mio::obs::JsonValue& row : clients->elements()) {
        std::printf(
            "%-10s %10llu %10llu %10llu %10llu\n",
            row.GetString("client", "?").c_str(),
            static_cast<unsigned long long>(row.GetUInt("requests")),
            static_cast<unsigned long long>(row.GetUInt("refused")),
            static_cast<unsigned long long>(row.GetUInt("coalesced")),
            static_cast<unsigned long long>(row.GetUInt("cached")));
      }
    }
  }
}

/// `mio top`: polls a running server's "stats" op and renders a live
/// terminal view, like top(1) for the query pipeline.
int CmdTop(const mio::ArgParser& args) {
  if (!args.Has("connect")) {
    std::fprintf(stderr, "top: --connect=SOCKET is required\n");
    return 1;
  }
  mio::server::ClientConfig cfg;
  cfg.socket_path = args.GetString("connect", "");
  cfg.attempts = 2;  // one quick retry rides out a momentary hiccup
  const bool once = args.Has("once");
  std::int64_t count = 0;
  int interval_ms = 1000;
  for (const mio::Status& st :
       {IntFlag(args, "count", 0, 0, std::numeric_limits<std::int64_t>::max(),
                &count),
        IntFlag(args, "interval-ms", 1000, 1, 3600000, &interval_ms)}) {
    if (!st.ok()) return StatusExit(st);
  }
  mio::server::ServeRequest req;
  req.id = "top";
  req.op = "stats";
  for (std::int64_t i = 0; once ? i < 1 : (count == 0 || i < count); ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    mio::server::ServeResponse res;
    mio::Status st = mio::server::Call(cfg, req, &res);
    if (!st.ok()) return StatusExit(st);
    mio::obs::JsonValue doc;
    std::string err;
    if (!mio::obs::ParseJson(res.payload, &doc, &err)) {
      std::fprintf(stderr, "top: bad stats payload: %s\n", err.c_str());
      return 1;
    }
    // Clear + home between refreshes so the view updates in place; a
    // single snapshot stays pipe-friendly.
    if (!once) std::printf("\x1b[2J\x1b[H");
    RenderServerStats(doc);
    std::fflush(stdout);
    if (once) break;
  }
  return 0;
}

int CmdQuery(const mio::ArgParser& args) {
  if (args.Has("connect")) return CmdQueryConnect(args);
  double r = args.GetDouble("r", 4.0);
  std::size_t k = 1;
  int threads = 1;
  double memory_budget_mb = 0.0;
  for (const mio::Status& st :
       {ParseKAndThreads(args, &k, &threads),
        DoubleFlag(args, "memory-budget-mb", 0.0, 0.0, 1e9,
                   &memory_budget_mb)}) {
    if (!st.ok()) return StatusExit(st);
  }
  mio::Result<mio::ObjectSet> loaded = LoadAny(args.GetString("in", ""));
  if (!loaded.ok()) return StatusExit(loaded.status());
  const mio::ObjectSet& set = loaded.value();
  std::string algo = args.GetString("algo", "bigrid");
  if (args.Has("trace-out")) mio::obs::Tracer::Instance().SetEnabled(true);
  mio::obs::ResetMetrics();
  mio::MemoryTracker::Instance().Observe("dataset", set.MemoryUsageBytes());

  mio::obs::QlogRecord id;
  id.workload = "query";
  id.dataset = args.GetString("in", "");
  id.algo = args.Has("delta") ? "temporal" : algo;
  id.r = r;
  id.k = k;
  id.threads = threads;
  id.objects = set.size();
  ArmObservabilityBackstop(args, id);

  mio::Timer t;
  mio::QueryResult res;
  if (args.Has("delta")) {
    algo = "temporal";
    res = mio::TemporalMioQuery(set, r, args.GetDouble("delta", 0.0), k);
  } else if (algo == "nl") {
    res = mio::NestedLoopQuery(set, r, threads, k);
  } else if (algo == "nl-kd") {
    res = mio::NlKdQuery(set, r, threads, k);
  } else if (algo == "sg") {
    res = mio::SimpleGridQuery(set, r, threads, k);
  } else if (algo == "rt") {
    res = mio::RtreeMbrQuery(set, r, threads, k);
  } else if (algo == "theoretical") {
    mio::TheoreticalIndex theo(set, threads);
    std::printf("(theoretical pre-processing: %.2fs, %s)\n",
                theo.preprocessing_seconds(),
                mio::FormatBytes(theo.MemoryUsageBytes()).c_str());
    res = theo.Query(r, k);
  } else {
    mio::MioEngine engine(set, args.GetString("labels", ""));
    mio::QueryOptions opt;
    opt.k = k;
    opt.threads = threads;
    opt.use_labels = opt.record_labels = args.Has("labels");
    opt.deadline_ms = args.GetDouble("deadline-ms", 0.0);
    opt.memory_budget_bytes =
        static_cast<std::size_t>(memory_budget_mb * 1024.0 * 1024.0);
    res = engine.Query(r, opt);
  }
  double elapsed = t.ElapsedSeconds();
  PrintResult(res, elapsed);

  id.wall_seconds = elapsed;
  int obs_rc = EmitObservability(args, res, std::move(id));
  mio::obs::DisarmExitFlush();
  if (obs_rc != 0) return obs_rc;
  // A guardrail-terminated query still printed its best-so-far answer;
  // the exit code tells scripts which limit fired.
  return mio::ExitCodeFor(res.status.code());
}

int CmdSweep(const mio::ArgParser& args) {
  mio::QueryOptions opt;
  mio::Status parsed = ParseKAndThreads(args, &opt.k, &opt.threads);
  if (!parsed.ok()) return StatusExit(parsed);
  mio::Result<mio::ObjectSet> loaded = LoadAny(args.GetString("in", ""));
  if (!loaded.ok()) return StatusExit(loaded.status());
  const mio::ObjectSet& set = loaded.value();
  mio::MioEngine engine(set, args.GetString("labels", ""));
  opt.use_labels = opt.record_labels = true;  // the sweep is labels' use case
  opt.reuse_grid = true;  // same-ceiling queries share the large grid
  if (args.Has("trace-out")) mio::obs::Tracer::Instance().SetEnabled(true);

  mio::obs::QlogRecord id;
  id.workload = "sweep";
  id.dataset = args.GetString("in", "");
  id.algo = "bigrid-label";
  id.k = opt.k;
  id.threads = opt.threads;
  id.objects = set.size();
  ArmObservabilityBackstop(args, id);

  std::printf("%8s %10s %10s %12s %10s\n", "r", "winner", "tau", "time[s]",
              "labels");
  // --stats-json records the last query of the sweep.
  mio::QueryResult last;
  for (double r : args.GetDoubleList("r", {4, 6, 8, 10})) {
    bool had = engine.HasLabelsFor(r);
    mio::Timer t;
    mio::QueryResult res = engine.Query(r, opt);
    if (res.topk.empty()) continue;
    double elapsed = t.ElapsedSeconds();
    std::printf("%8.2f %10u %10u %12.4f %10s\n", r, res.best().id,
                res.best().score, elapsed, had ? "reused" : "recorded");
    last = std::move(res);
    id.r = r;
    id.wall_seconds = elapsed;
  }

  int obs_rc = EmitObservability(args, last, std::move(id));
  mio::obs::DisarmExitFlush();
  return obs_rc;
}

// --- mio profile -----------------------------------------------------------

int CmdProfile(const mio::ArgParser& args) {
  double r = args.GetDouble("r", 4.0);
  std::size_t k = 1;
  int threads = 1;
  int warmup = 1;
  int runs = 5;
  for (const mio::Status& st :
       {ParseKAndThreads(args, &k, &threads),
        IntFlag(args, "warmup", 1, 0, 1000000, &warmup),
        IntFlag(args, "runs", 5, 1, 1000000, &runs)}) {
    if (!st.ok()) return StatusExit(st);
  }
  mio::Result<mio::ObjectSet> loaded = LoadAny(args.GetString("in", ""));
  if (!loaded.ok()) return StatusExit(loaded.status());
  const mio::ObjectSet& set = loaded.value();

  mio::MioEngine engine(set, args.GetString("labels", ""));
  mio::QueryOptions opt;
  opt.k = k;
  opt.threads = threads;
  opt.use_labels = opt.record_labels = args.Has("labels");

  for (int i = 0; i < warmup; ++i) (void)engine.Query(r, opt);

  // One record per measured run, written after the loop so file output
  // never lands between measured runs.
  mio::obs::QlogRecord id;
  id.workload = "profile";
  id.dataset = args.GetString("in", "");
  id.algo = opt.use_labels ? "bigrid-label" : "bigrid";
  id.r = r;
  id.k = k;
  id.threads = threads;
  id.objects = set.size();
  std::vector<mio::obs::QlogRecord> records;
  for (int i = 0; i < runs; ++i) {
    mio::Timer t;
    mio::QueryResult res = engine.Query(r, opt);
    if (!res.status.ok()) return StatusExit(res.status);
    id.query_index = static_cast<std::uint64_t>(i);
    id.wall_seconds = t.ElapsedSeconds();
    records.push_back(mio::obs::BuildQlogRecord(id, &res));
  }

  std::string out = args.GetString("out", "-");
  mio::obs::QlogWriter qlog;
  mio::Status st = qlog.Open(out);
  for (std::size_t i = 0; st.ok() && i < records.size(); ++i) {
    st = qlog.Append(records[i]);
  }
  if (st.ok()) st = qlog.Close();
  if (!st.ok()) return StatusExit(st);
  if (out != "-") {
    std::printf("profile: %s (%d runs, pmu tier %s)\n", out.c_str(), runs,
                records.front().pmu_tier.c_str());
  }
  // The `mio qlog report` view of the runs; stderr when the records
  // themselves went to stdout.
  std::fputs(
      mio::obs::FormatQlogReport(mio::obs::BuildQlogReport(records)).c_str(),
      out == "-" ? stderr : stdout);
  return 0;
}

// --- mio explain -----------------------------------------------------------

int CmdExplain(const mio::ArgParser& args) {
  double r = args.GetDouble("r", 4.0);
  std::size_t k = 1;
  int threads = 1;
  mio::Status parsed = ParseKAndThreads(args, &k, &threads);
  if (!parsed.ok()) return StatusExit(parsed);
  mio::Result<mio::ObjectSet> loaded = LoadAny(args.GetString("in", ""));
  if (!loaded.ok()) return StatusExit(loaded.status());
  const mio::ObjectSet& set = loaded.value();

  mio::MioEngine engine(set, args.GetString("labels", ""));
  mio::QueryOptions opt;
  opt.k = k;
  opt.threads = threads;
  opt.use_labels = opt.record_labels = args.Has("labels");
  mio::obs::ResetMetrics();  // label and verification counters, this query only

  mio::Timer t;
  mio::QueryResult res = engine.Query(r, opt);
  double elapsed = t.ElapsedSeconds();
  const mio::QueryStats& st = res.stats;
  const std::size_t n = set.size();

  auto pct = [](std::size_t num, std::size_t den) {
    return den > 0 ? 100.0 * static_cast<double>(num) /
                         static_cast<double>(den)
                   : 0.0;
  };

  std::printf("explain: %s  r=%.3g k=%zu threads=%d\n",
              args.GetString("in", "").c_str(), r, k, threads);
  std::printf("tiers: kernel=%s pmu=%s\n",
              mio::KernelTierName(mio::ActiveKernelTier()),
              mio::obs::PmuTierName(mio::obs::ActivePmuTier()));
  std::printf("\npruning funnel (paper §IV):\n");
  std::printf("  objects               %12zu  (%zu points)\n", n,
              st.total_points);
  std::printf("  lower-bounding        tau_low_max=%u (threshold for pruning)\n",
              st.tau_low_max);
  std::printf("  ub-survivors          %12zu  (%.2f%% of objects enter the "
              "candidate queue)\n",
              st.num_candidates, pct(st.num_candidates, n));
  std::printf("  verified exactly      %12zu  (%.2f%% of candidates; %zu "
              "early-terminated by the queue bound)\n",
              st.num_verified, pct(st.num_verified, st.num_candidates),
              st.num_candidates > st.num_verified
                  ? st.num_candidates - st.num_verified
                  : 0);
  if (!res.topk.empty()) {
    std::printf("  winner                object %u  tau=%u\n", res.best().id,
                res.best().score);
  }
  std::printf("\nwork: %zu distance computations, cells small/large %zu/%zu\n",
              st.distance_computations, st.cells_small, st.cells_large);
  const mio::obs::MetricsSnapshot m = mio::obs::SnapshotMetrics();
  auto counter = [&m](mio::obs::Counter c) {
    return m.counters[static_cast<std::size_t>(c)];
  };
  auto ratio = [](double num, std::uint64_t den) {
    return den > 0 ? num / static_cast<double>(den) : 0.0;
  };
  {
    // Cell-major verification: one neighbourhood walk per point group.
    const std::uint64_t points = counter(mio::obs::Counter::kVerifyPoints);
    const std::uint64_t groups = counter(mio::obs::Counter::kVerifyGroups);
    const std::uint64_t partners =
        counter(mio::obs::Counter::kVerifyPartnersConfirmed);
    std::printf(
        "verification: %llu points in %llu groups (%.2f points/group), "
        "%llu cell probes, %llu postings touched, %llu partners confirmed "
        "(%.1f comparisons/partner)\n",
        static_cast<unsigned long long>(points),
        static_cast<unsigned long long>(groups),
        ratio(static_cast<double>(points), groups),
        static_cast<unsigned long long>(
            counter(mio::obs::Counter::kVerifyCellProbes)),
        static_cast<unsigned long long>(
            counter(mio::obs::Counter::kPostingScans)),
        static_cast<unsigned long long>(partners),
        ratio(static_cast<double>(st.distance_computations), partners));
  }
  if (opt.use_labels) {
    std::uint64_t hits = counter(mio::obs::Counter::kLabelCacheHits);
    std::uint64_t misses = counter(mio::obs::Counter::kLabelCacheMisses);
    std::printf("labels: %s (%zu points pruned by labels; cache hits %llu, "
                "misses %llu)\n",
                mio::LabelOutcomeName(st.label_outcome),
                st.points_pruned_by_labels,
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses));
  } else {
    std::printf("labels: off (pass --labels=DIR to record/reuse)\n");
  }
  std::printf("degradation: %s\n",
              st.degradation_level == 0
                  ? "none"
                  : (std::string("level ") +
                     std::to_string(st.degradation_level))
                        .c_str());
  std::printf("outcome: %s%s\n", mio::StatusCodeName(res.status.code()),
              res.complete ? "" : " (incomplete — best-so-far answer)");
  std::printf("time: %.4fs (grid %.4f | lb %.4f | ub %.4f | verify %.4f)\n",
              elapsed, st.phases.grid_mapping, st.phases.lower_bounding,
              st.phases.upper_bounding, st.phases.verification);
  return mio::ExitCodeFor(res.status.code());
}

// --- mio run-workload / mio qlog report -------------------------------------

int CmdRunWorkload(const mio::ArgParser& args) {
  if (!args.Has("spec")) {
    std::fprintf(stderr, "run-workload: --spec=FILE is required\n");
    return 1;
  }
  mio::server::ClientConfig cfg;
  if (args.Has("connect")) {
    mio::Status st = ClientConfigFromArgs(args, &cfg);
    if (!st.ok()) return StatusExit(st);
  }
  mio::Result<mio::WorkloadSpec> spec_res =
      mio::LoadWorkloadSpec(args.GetString("spec", ""));
  if (!spec_res.ok()) return StatusExit(spec_res.status());
  mio::WorkloadSpec spec = std::move(spec_res).value();

  // Replay against a running server instead of an in-process engine.
  if (args.Has("connect")) {
    mio::Result<mio::server::ReplaySummary> replay =
        mio::server::ReplayWorkload(cfg, spec);
    if (!replay.ok()) return StatusExit(replay.status());
    const mio::server::ReplaySummary& rs = replay.value();
    std::printf(
        "workload %s via %s: %zu queries in %.3fs (%zu ok, %zu overloaded, "
        "%zu failed, %zu transport errors)\n",
        spec.name.empty() ? "(unnamed)" : spec.name.c_str(),
        cfg.socket_path.c_str(), rs.sent, rs.wall_seconds, rs.ok,
        rs.overloaded, rs.failed, rs.transport_errors);
    return rs.transport_errors == 0 ? 0 : 3;
  }

  mio::WorkloadRunOptions opts;
  double tail_threshold_ms = 0.0;
  for (const mio::Status& st :
       {IntFlag(args, "tail-slowest", 0, 0, kInt32Max, &opts.tail.slowest_n),
        IntFlag(args, "telemetry-interval-ms", 1000, 10, 3600000,
                &opts.telemetry_interval_ms),
        MsFlag(args, "tail-threshold-ms", 0.0, &tail_threshold_ms)}) {
    if (!st.ok()) return StatusExit(st);
  }
  opts.tail.threshold_seconds = tail_threshold_ms / 1000.0;

  std::string dataset = args.GetString("in", spec.dataset);
  if (dataset.empty()) {
    std::fprintf(stderr,
                 "run-workload: no dataset (--in=FILE or a `dataset` line "
                 "in the spec)\n");
    return 1;
  }
  mio::Result<mio::ObjectSet> loaded = LoadAny(dataset);
  if (!loaded.ok()) return StatusExit(loaded.status());
  mio::obs::ResetMetrics();
  mio::MemoryTracker::Instance().Observe("dataset",
                                         loaded.value().MemoryUsageBytes());

  opts.dataset_name = dataset;
  opts.qlog_path = args.GetString("qlog", "");
  opts.trace_dir = args.GetString("trace-dir", "");
  opts.label_dir = args.GetString("labels", "");
  opts.batch = args.Has("batch");
  opts.metrics_out = args.GetString("metrics-out", "");
  opts.verbose = args.Has("verbose");

  // Backstop: an abnormal exit mid-workload (std::exit from a library,
  // a fatal error path) still renders a final exposition via atexit.
  // SIGTERM validity comes from the sampler's periodic atomic writes —
  // the signal handler deliberately leaves the scrape file alone.
  if (!opts.metrics_out.empty()) {
    mio::obs::ExitFlushConfig flush_cfg;
    flush_cfg.metrics_path = opts.metrics_out;
    mio::obs::ArmExitFlush(std::move(flush_cfg));
  }

  mio::Result<mio::WorkloadRunSummary> run =
      mio::RunWorkload(loaded.value(), spec, opts);
  if (!opts.metrics_out.empty()) mio::obs::DisarmExitFlush();
  if (!run.ok()) return StatusExit(run.status());
  const mio::WorkloadRunSummary& s = run.value();

  std::printf("workload %s: %zu queries in %.3fs (%zu failed, %zu "
              "incomplete)\n",
              spec.name.empty() ? "(unnamed)" : spec.name.c_str(), s.queries,
              s.wall_seconds, s.failed, s.incomplete);
  if (!opts.qlog_path.empty() && opts.qlog_path != "-") {
    std::printf("qlog: %s (%zu records)\n", opts.qlog_path.c_str(),
                s.qlog_records);
  }
  if (opts.tail.enabled()) {
    std::printf("tail: %zu queries", s.tail_indices.size());
    if (!opts.trace_dir.empty()) {
      std::printf(", %zu traces in %s (%zu evicted)", s.traces_written,
                  opts.trace_dir.c_str(), s.traces_evicted);
    }
    std::printf("\n");
  }
  if (!opts.metrics_out.empty()) {
    std::printf("metrics: %s (%llu telemetry samples)\n",
                opts.metrics_out.c_str(),
                static_cast<unsigned long long>(s.telemetry_samples));
  }
  mio::obs::MetricsSnapshot m = mio::obs::SnapshotMetrics();
  if (opts.batch) {
    std::printf(
        "batch: %llu classes, %llu grid builds saved, %llu posting bytes "
        "shared\n",
        static_cast<unsigned long long>(m.counters[static_cast<std::size_t>(
            mio::obs::Counter::kBatchClasses)]),
        static_cast<unsigned long long>(m.counters[static_cast<std::size_t>(
            mio::obs::Counter::kBatchGridBuildsSaved)]),
        static_cast<unsigned long long>(m.counters[static_cast<std::size_t>(
            mio::obs::Counter::kBatchPostingsBytesShared)]));
  }
  std::uint64_t hits = m.counters[static_cast<std::size_t>(
      mio::obs::Counter::kLabelCacheHits)];
  std::uint64_t misses = m.counters[static_cast<std::size_t>(
      mio::obs::Counter::kLabelCacheMisses)];
  if (hits + misses > 0) {
    std::printf("labels: %llu cache hits, %llu misses (%.1f%% hit rate)\n",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses));
  }
  return 0;
}

int CmdQlogReport(const mio::ArgParser& args) {
  if (!args.Has("in")) {
    std::fprintf(stderr, "qlog report: --in=FILE is required\n");
    return 1;
  }
  mio::Result<std::vector<mio::obs::QlogRecord>> records =
      mio::obs::LoadQlogFile(args.GetString("in", ""));
  if (!records.ok()) return StatusExit(records.status());
  if (records.value().empty()) {
    // An empty qlog must not produce a vacuous report (or a vacuously
    // passing --slo gate): the workload that should have written it
    // almost certainly failed before its first query.
    std::fprintf(stderr,
                 "qlog report: %s contains no query records — the workload "
                 "likely failed before logging anything; nothing to "
                 "report%s\n",
                 args.GetString("in", "").c_str(),
                 args.Has("slo") ? " (refusing a vacuous SLO pass)" : "");
    return mio::ExitCodeFor(mio::StatusCode::kInvalidArgument);
  }
  std::size_t slowest_n =
      static_cast<std::size_t>(args.GetInt("slowest", 5));
  std::string trace_dir = args.GetString("trace-dir", "");
  mio::obs::QlogReport report =
      mio::obs::BuildQlogReport(records.value(), slowest_n);
  if (args.Has("json")) {
    std::string doc = mio::obs::QlogReportToJson(report, trace_dir);
    std::string error;
    if (!mio::obs::ValidateJson(doc, &error)) {
      std::fprintf(stderr, "internal error: report JSON invalid: %s\n",
                   error.c_str());
      return 1;
    }
    std::string out = args.GetString("json", "-");
    mio::Status st = mio::obs::WriteTextFile(out, doc + "\n");
    if (!st.ok()) return StatusExit(st);
    if (out != "-") std::printf("report: %s\n", out.c_str());
  } else {
    std::fputs(mio::obs::FormatQlogReport(report, trace_dir).c_str(), stdout);
  }
  if (args.Has("slo")) {
    // The objectives live in the workload spec that produced the qlog.
    mio::Result<mio::WorkloadSpec> spec =
        mio::LoadWorkloadSpec(args.GetString("slo", ""));
    if (!spec.ok()) return StatusExit(spec.status());
    if (spec.value().slos.empty()) {
      std::fprintf(stderr, "qlog report: spec has no slo directives\n");
      return 1;
    }
    std::vector<mio::obs::SloResult> slos =
        mio::obs::EvaluateSlos(records.value(), spec.value().slos);
    std::fputs(mio::obs::FormatSloReport(slos).c_str(), stdout);
    for (const mio::obs::SloResult& res : slos) {
      if (!res.met) return 1;
    }
  }
  return 0;
}

int CmdQlogDiff(const mio::ArgParser& args) {
  const std::vector<std::string>& pos = args.positional();
  if (pos.size() != 2) {
    std::fprintf(stderr, "usage: mio qlog diff BASELINE CANDIDATE\n");
    return 1;
  }
  // A NaN or infinite threshold would pass any candidate, a negative one
  // would flag a file diffed against itself.
  mio::obs::QlogDiffOptions opts;
  mio::Status parsed = DoubleFlag(args, "threshold", opts.latency_threshold,
                                  0.0, 10.0, &opts.latency_threshold);
  if (!parsed.ok()) return StatusExit(parsed);
  mio::Result<std::vector<mio::obs::QlogRecord>> baseline =
      mio::obs::LoadQlogFile(pos[0]);
  if (!baseline.ok()) return StatusExit(baseline.status());
  mio::Result<std::vector<mio::obs::QlogRecord>> candidate =
      mio::obs::LoadQlogFile(pos[1]);
  if (!candidate.ok()) return StatusExit(candidate.status());
  if (baseline.value().empty() || candidate.value().empty()) {
    // Diffing against an empty qlog would "pass" with zero regressions —
    // exactly the run a regression gate must not wave through.
    std::fprintf(stderr,
                 "qlog diff: %s contains no query records — refusing a "
                 "vacuous comparison\n",
                 baseline.value().empty() ? pos[0].c_str() : pos[1].c_str());
    return mio::ExitCodeFor(mio::StatusCode::kInvalidArgument);
  }

  mio::obs::QlogDiffResult diff =
      mio::obs::DiffQlogs(baseline.value(), candidate.value(), opts);
  if (diff.configs_compared == 0) {
    // Two runs of different workloads share no configuration: a "pass"
    // would compare nothing per configuration.
    std::fprintf(stderr,
                 "qlog diff: no configuration (workload, dataset, algo, r, "
                 "k, threads, scale) is in both %s and %s — refusing a "
                 "vacuous comparison\n",
                 pos[0].c_str(), pos[1].c_str());
    return mio::ExitCodeFor(mio::StatusCode::kInvalidArgument);
  }
  if (args.Has("json")) {
    std::string doc = mio::obs::QlogDiffToJson(diff);
    std::string out = args.GetString("json", "-");
    mio::Status st = mio::obs::WriteTextFile(out, doc + "\n");
    if (!st.ok()) return StatusExit(st);
    if (out != "-") std::printf("diff: %s\n", out.c_str());
  } else {
    std::fputs(mio::obs::FormatQlogDiff(diff).c_str(), stdout);
  }
  return diff.HasRegression() ? 1 : 0;
}

int CmdConvert(const mio::ArgParser& args) {
  mio::Result<mio::ObjectSet> loaded = LoadAny(args.GetString("in", ""));
  if (!loaded.ok()) return StatusExit(loaded.status());
  std::string out = args.GetString("out", "");
  mio::Status st = SaveAny(loaded.value(), out, args.GetString("format", ""));
  if (!st.ok()) return StatusExit(st);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int CmdImportSwc(const mio::ArgParser& args) {
  mio::Result<mio::ObjectSet> set = mio::LoadSwcDirectory(args.GetString("dir", "."));
  if (!set.ok()) return StatusExit(set.status());
  // Morton-order ids: what the compressed cell bitsets rely on.
  mio::ObjectSet sorted = mio::SortObjectsSpatially(set.value());
  std::string out = args.GetString("out", "neurons.bin");
  mio::Status st = SaveAny(sorted, out, args.GetString("format", ""));
  if (!st.ok()) return StatusExit(st);
  std::printf("wrote %s: %s\n", out.c_str(), sorted.Stats().ToString().c_str());
  return 0;
}

int CmdImportCsv(const mio::ArgParser& args) {
  mio::TrajectoryCsvOptions opt;
  opt.id_column = args.GetString("id-col", "id");
  opt.x_column = args.GetString("x-col", "x");
  opt.y_column = args.GetString("y-col", "y");
  opt.z_column = args.GetString("z-col", "");
  opt.time_column = args.GetString("time-col", "");
  std::string delim = args.GetString("delim", ",");
  if (!delim.empty()) opt.delimiter = delim[0];
  opt.max_points_per_object =
      static_cast<std::size_t>(args.GetInt("split", 0));
  mio::Result<mio::ObjectSet> set =
      mio::LoadTrajectoryCsv(args.GetString("in", ""), opt);
  if (!set.ok()) return StatusExit(set.status());
  mio::ObjectSet sorted = mio::SortObjectsSpatially(set.value());
  std::string out = args.GetString("out", "tracks.bin");
  mio::Status st = SaveAny(sorted, out, args.GetString("format", ""));
  if (!st.ok()) return StatusExit(st);
  std::printf("wrote %s: %s\n", out.c_str(), sorted.Stats().ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  std::string cmd = argv[1];
  mio::ArgParser args(argc - 1, argv + 1);
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "query") return CmdQuery(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "top") return CmdTop(args);
  if (cmd == "sweep") return CmdSweep(args);
  if (cmd == "profile") return CmdProfile(args);
  if (cmd == "explain") return CmdExplain(args);
  if (cmd == "run-workload") return CmdRunWorkload(args);
  if (cmd == "qlog") {
    if (argc >= 3 && std::string(argv[2]) == "report") {
      return CmdQlogReport(mio::ArgParser(argc - 2, argv + 2));
    }
    if (argc >= 3 && std::string(argv[2]) == "diff") {
      return CmdQlogDiff(mio::ArgParser(argc - 2, argv + 2));
    }
    std::fprintf(stderr,
                 "usage: mio qlog report --in=FILE | mio qlog diff "
                 "BASELINE CANDIDATE\n");
    return 1;
  }
  if (cmd == "convert") return CmdConvert(args);
  if (cmd == "import-swc") return CmdImportSwc(args);
  if (cmd == "import-csv") return CmdImportCsv(args);
  Usage();
  return cmd == "help" || cmd == "--help" ? 0 : 1;
}
