#include "workload/workload_runner.hpp"

#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/fault_injection.hpp"
#include "common/memory_tracker.hpp"
#include "common/timer.hpp"
#include "core/mio_engine.hpp"
#include "geo/cell_key.hpp"
#include "geo/kernels.hpp"
#include "obs/perf_counters.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "object/sampling.hpp"

namespace mio {

namespace {

/// Sum of per-tag peaks from the process-wide tracker — an upper-bound
/// style footprint (tags peak at different times), stable across runs.
std::uint64_t TrackerPeakBytes() {
  std::uint64_t total = 0;
  for (const MemoryTracker::Entry& e : MemoryTracker::Instance().Snapshot()) {
    total += e.peak_bytes;
  }
  return total;
}

/// One query's qlog record — shared by the sequential and batch paths so
/// the two emit field-identical lines (batch adds the "batch" section).
obs::QlogRecord MakeQlogRecord(const WorkloadSpec& spec,
                               const std::string& dataset_name,
                               std::size_t objects, std::size_t index,
                               const WorkloadQuery& wq, const QueryResult& res,
                               double wall) {
  const QueryStats& stats = res.stats;
  obs::QlogRecord rec;
  rec.query_index = index;
  rec.workload = spec.name;
  rec.dataset = dataset_name;
  rec.algo = wq.use_labels ? "bigrid-label" : "bigrid";
  rec.r = wq.r;
  rec.ceil_r = static_cast<int>(LargeGridWidth(wq.r));
  rec.k = wq.k;
  rec.threads = stats.threads;
  rec.wall_seconds = wall;
  rec.total_seconds = stats.total_seconds;
  rec.phase_label_input = stats.phases.label_input;
  rec.phase_grid_mapping = stats.phases.grid_mapping;
  rec.phase_lower_bounding = stats.phases.lower_bounding;
  rec.phase_upper_bounding = stats.phases.upper_bounding;
  rec.phase_verification = stats.phases.verification;
  rec.objects = objects;
  rec.candidates = stats.num_candidates;
  rec.verified = stats.num_verified;
  rec.distance_computations = stats.distance_computations;
  if (!res.topk.empty()) {
    rec.winner_id = res.best().id;
    rec.winner_score = res.best().score;
  }
  rec.label_outcome = LabelOutcomeName(stats.label_outcome);
  rec.points_pruned_by_labels = stats.points_pruned_by_labels;
  rec.status = StatusCodeName(res.status.code());
  rec.complete = res.complete;
  rec.degradation_level = stats.degradation_level;
  rec.pmu_tier = obs::PmuTierName(obs::ActivePmuTier());
  rec.kernel_tier = KernelTierName(ActiveKernelTier());
  rec.index_memory_bytes = stats.index_memory_bytes;
  rec.peak_memory_bytes = TrackerPeakBytes();
  return rec;
}

}  // namespace

Result<WorkloadRunSummary> RunWorkload(const ObjectSet& objects,
                                       const WorkloadSpec& spec,
                                       const WorkloadRunOptions& opts) {
  WorkloadRunSummary summary;

  // Sampling (paper Fig. 6): the sampled set must outlive the engine.
  ObjectSet sampled;
  const ObjectSet* use = &objects;
  if (spec.sample_rate < 1.0) {
    sampled = SampleObjects(objects, spec.sample_rate, spec.sample_seed);
    use = &sampled;
  }
  if (use->empty()) {
    return Status::InvalidArgument("workload: dataset is empty after sampling");
  }

  obs::QlogWriter qlog;
  if (!opts.qlog_path.empty()) {
    MIO_RETURN_NOT_OK(qlog.Open(opts.qlog_path));
  }

  // Tail traces need tracing compiled in and a directory to land in.
  bool want_traces = opts.tail.enabled() && !opts.trace_dir.empty();
#ifdef MIO_TRACING_DISABLED
  want_traces = false;
#endif
  if (want_traces) {
    std::error_code ec;
    std::filesystem::create_directories(opts.trace_dir, ec);
    if (ec) {
      return Status::IOError("workload: cannot create trace dir: " +
                             opts.trace_dir);
    }
  }
  obs::TailSampler sampler(opts.tail);
  obs::Tracer& tracer = obs::Tracer::Instance();
  const bool tracer_was_enabled = tracer.enabled();

  const std::string dataset_name =
      !opts.dataset_name.empty() ? opts.dataset_name : spec.dataset;

  // One engine across the whole workload: label reuse across queries
  // sharing ceil(r) is the point of mixing radius classes.
  MioEngine engine(*use, opts.label_dir);

  // Continuous telemetry rides alongside the run: the sampler thread
  // snapshots the registry + process health each interval and keeps the
  // scrape file fresh via atomic writes, so killing the workload at any
  // point still leaves a valid exposition behind.
  std::optional<obs::TelemetrySampler> telemetry;
  if (!opts.metrics_out.empty()) {
    obs::TelemetryConfig tcfg = obs::TelemetryConfigFromEnv();
    if (opts.telemetry_interval_ms > 0) {
      tcfg.interval_ms = opts.telemetry_interval_ms;
    }
    tcfg.metrics_path = opts.metrics_out;
    telemetry.emplace(std::move(tcfg));
    telemetry->Start();
  }
  auto stop_telemetry = [&]() {
    if (telemetry) {
      telemetry->Stop();
      summary.telemetry_samples = telemetry->SampleCount();
    }
  };

  Timer workload_timer;

  // --- Batch mode: fold every query directive into one QueryBatch ---------
  // Members run as reuse_grid Query calls in ceil(r)-class order (see
  // core/batch.hpp); per-member qlog records are emitted afterwards with
  // engine-side timings (there is no per-member harness wall clock inside
  // a single engine call).
  if (opts.batch) {
    std::vector<BatchQuery> batch(spec.queries.size());
    for (std::size_t i = 0; i < spec.queries.size(); ++i) {
      const WorkloadQuery& wq = spec.queries[i];
      batch[i].r = wq.r;
      batch[i].options.threads = wq.threads;
      batch[i].options.k = wq.k;
      batch[i].options.use_labels = wq.use_labels;
      batch[i].options.record_labels = wq.record_labels;
      batch[i].options.reuse_grid = wq.reuse_grid;
      batch[i].options.deadline_ms = wq.deadline_ms;
    }
    // The tail-sampling fault site stays exercisable through the batch
    // path: the delay lands before the batch, inflating member 0's
    // workload-level share deterministically in fault-storm tests.
    if (MIO_FAULT_HIT("workload.query_delay")) {
      Timer delay;
      while (delay.ElapsedSeconds() < 0.05) {
      }
    }
    BatchResult bres = engine.QueryBatch(batch);
    for (std::size_t i = 0; i < spec.queries.size(); ++i) {
      const QueryResult& res = bres.results[i];
      const double wall = res.stats.total_seconds;
      if (!res.status.ok()) ++summary.failed;
      if (!res.complete) ++summary.incomplete;
      if (qlog.is_open()) {
        obs::QlogRecord rec = MakeQlogRecord(spec, dataset_name, use->size(),
                                             i, spec.queries[i], res, wall);
        rec.batch_id = 0;
        rec.batch_size = spec.queries.size();
        MIO_RETURN_NOT_OK(qlog.Append(rec));
      }
      if (sampler.enabled()) {
        (void)sampler.Offer(static_cast<std::uint64_t>(i), wall);
      }
      if (opts.verbose) {
        std::fprintf(stderr,
                     "workload %s q%zu/%zu r=%g wall=%.6fs status=%s (batch)\n",
                     spec.name.c_str(), i + 1, spec.queries.size(),
                     spec.queries[i].r, wall,
                     StatusCodeName(res.status.code()));
      }
    }
    summary.wall_seconds = workload_timer.ElapsedSeconds();
    summary.queries = spec.queries.size();
    summary.tail_indices = sampler.TailIndices();
    summary.qlog_records = qlog.records_written();
    stop_telemetry();
    MIO_RETURN_NOT_OK(qlog.Close());
    return summary;
  }

  for (std::size_t i = 0; i < spec.queries.size(); ++i) {
    const WorkloadQuery& wq = spec.queries[i];
    QueryOptions qopts;
    qopts.threads = wq.threads;
    qopts.k = wq.k;
    qopts.use_labels = wq.use_labels;
    qopts.record_labels = wq.record_labels;
    qopts.reuse_grid = wq.reuse_grid;
    qopts.deadline_ms = wq.deadline_ms;

    if (want_traces) {
      tracer.Clear();
      tracer.SetEnabled(true);
    }
    Timer wall_timer;
    // Fault site for deterministic tail-sampling tests: an armed
    // workload.query_delay busy-waits inside the timed region, forcing
    // this query into the tail.
    if (MIO_FAULT_HIT("workload.query_delay")) {
      Timer delay;
      while (delay.ElapsedSeconds() < 0.05) {
      }
    }
    QueryResult res = engine.Query(wq.r, qopts);
    const double wall = wall_timer.ElapsedSeconds();
    if (want_traces) tracer.SetEnabled(tracer_was_enabled);

    if (!res.status.ok()) ++summary.failed;
    if (!res.complete) ++summary.incomplete;

    if (qlog.is_open()) {
      obs::QlogRecord rec =
          MakeQlogRecord(spec, dataset_name, use->size(), i, wq, res, wall);
      rec.trace_dropped_spans = want_traces ? tracer.DroppedEvents() : 0;
      MIO_RETURN_NOT_OK(qlog.Append(rec));
    }

    if (want_traces) {
      obs::TailSampler::Decision d =
          sampler.Offer(static_cast<std::uint64_t>(i), wall);
      // Export before the next query's Clear() wipes the rings.
      if (d.export_trace) {
        std::filesystem::path path =
            std::filesystem::path(opts.trace_dir) / obs::TailTraceFileName(i);
        MIO_RETURN_NOT_OK(tracer.WriteChromeTrace(path.string()));
        ++summary.traces_written;
      }
      for (std::uint64_t evicted : d.evict) {
        std::filesystem::path path =
            std::filesystem::path(opts.trace_dir) /
            obs::TailTraceFileName(evicted);
        std::error_code ec;
        std::filesystem::remove(path, ec);  // best-effort
        ++summary.traces_evicted;
        if (summary.traces_written > 0) --summary.traces_written;
      }
    } else if (sampler.enabled()) {
      // No trace files, but still track the tail set (summary/testing).
      (void)sampler.Offer(static_cast<std::uint64_t>(i), wall);
    }

    if (opts.verbose) {
      std::fprintf(stderr,
                   "workload %s q%zu/%zu r=%g wall=%.6fs status=%s\n",
                   spec.name.c_str(), i + 1, spec.queries.size(), wq.r, wall,
                   StatusCodeName(res.status.code()));
    }
  }
  summary.wall_seconds = workload_timer.ElapsedSeconds();
  summary.queries = spec.queries.size();
  summary.tail_indices = sampler.TailIndices();
  summary.qlog_records = qlog.records_written();
  stop_telemetry();
  MIO_RETURN_NOT_OK(qlog.Close());
  return summary;
}

}  // namespace mio
