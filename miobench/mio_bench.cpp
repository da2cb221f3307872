// mio_bench — the repository benchmark. Four workloads drive the public
// API from outside, from the distance kernels up to a `mio serve`
// subprocess, and every answer is checked against NL-kd. README.md in
// this directory gives the workloads, the metrics and the reasons.
//
//   mio_bench --workload=syn-cold|bird-warm|bird-batch|serve-mix
//             --seed=S --seconds=T --mio=PATH --golden=FILE
//             [--trace [--trace-out=FILE]] [--smoke]
//   mio_bench --make-golden=FILE
//
// Run it from a scratch directory: the datasets, the server socket and
// log, the qlog and any recomputed oracle answers go to the current
// directory. It prints one JSON record line and exits 0 only when every
// answer matched the oracle (1 on a mismatch, 2 on any other error).
//
// Untraced runs measure the end-to-end metrics. A traced run (--trace)
// runs each measured call twice, untraced then traced (serve-mix: an
// untraced half, then a traced half), and reports the per-layer numbers
// plus the overhead of tracing; its spans go to --trace-out at the end.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline/nl_kdtree.hpp"
#include "common/argparse.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "core/bigrid.hpp"
#include "core/lower_bound.hpp"
#include "core/mio_engine.hpp"
#include "core/upper_bound.hpp"
#include "core/verification.hpp"
#include "datagen/presets.hpp"
#include "geo/kernels.hpp"
#include "io/dataset_io.hpp"
#include "obs/json.hpp"
#include "obs/perf_counters.hpp"
#include "obs/qlog.hpp"
#include "obs/stats_sink.hpp"
#include "obs/telemetry.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"

namespace {

using mio::QueryResult;
using mio::QueryStats;
using mio::ScoredObject;
using mio::Timer;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr const char* kSocket = "serve.sock";

[[noreturn]] void Fail(const std::string& msg) {
  throw std::runtime_error(msg);
}

/// Milliseconds since the process started: the clock of every span.
double NowMs() {
  static const Timer epoch;
  return epoch.ElapsedMillis();
}

// --- Inputs ----------------------------------------------------------------

/// The datasets are fixed (preset seed 42) and the radii come from fixed
/// pools; the benchmark seed draws the query streams from those pools.
/// Fixing them lets the committed NL-kd answers (golden.json) cover every
/// seed: NL-kd takes ~4.5 s per syn radius, far too slow to run per seed.
constexpr std::uint64_t kDatasetSeed = 42;

struct Dataset {
  std::string name;  ///< preset name, also the file stem
  mio::datagen::Preset preset;
  std::vector<double> pool;  ///< every radius a workload may query
};

/// n radii at the midpoints of n equal steps over [lo, hi).
std::vector<double> MidpointPool(double lo, double hi, int n) {
  std::vector<double> pool;
  for (int i = 0; i < n; ++i) pool.push_back(lo + (hi - lo) * (i + 0.5) / n);
  return pool;
}

/// syn: 8 radii in [4.5, 6.0), where verification is 30-90% of a cold
/// query. bird: 256 radii in [3, 10), seven ceil(r) classes of ~37 radii.
Dataset Syn() {
  return {"syn", mio::datagen::Preset::kSyn, MidpointPool(4.5, 6.0, 8)};
}
Dataset Bird() {
  return {"bird", mio::datagen::Preset::kBird, MidpointPool(3.0, 10.0, 256)};
}

/// serve-mix's hot set: 8 bird radii, one per 32 pool slots. It fits the
/// server's 32-entry result cache; the other 248 overflow it.
bool IsHot(std::size_t bird_idx) { return bird_idx % 32 == 16; }

/// Share of serve-mix requests that use a hot radius. About a third of
/// all requests then hit the cache, so p50 and p90 both fall among the
/// executed requests: with half the requests hot, p50 sat in the steep
/// tail of the cache-hit latencies and moved ±15% between runs.
constexpr double kHotShare = 0.25;

int CeilClass(double r) { return static_cast<int>(mio::LargeGridWidth(r)); }

/// Pool indices grouped by ceil(r) class.
std::map<int, std::vector<std::size_t>> ByClass(const Dataset& ds) {
  std::map<int, std::vector<std::size_t>> by_class;
  for (std::size_t i = 0; i < ds.pool.size(); ++i) {
    by_class[CeilClass(ds.pool[i])].push_back(i);
  }
  return by_class;
}

/// One seeded pool radius per ceil(r) class: the queries that warm a
/// long-lived engine's label and grid caches during set-up.
std::vector<std::size_t> PrimingRadii(const Dataset& ds, mio::Pcg32* rng) {
  std::vector<std::size_t> priming;
  for (const auto& [c, members] : ByClass(ds)) {
    priming.push_back(members[rng->NextBounded(
        static_cast<std::uint32_t>(members.size()))]);
  }
  return priming;
}

void Shuffle(std::vector<std::size_t>* v, mio::Pcg32* rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBounded(static_cast<std::uint32_t>(i))]);
  }
}

/// FNV-1a over the coordinates: ties golden answers to the exact points.
std::string Fingerprint(const mio::ObjectSet& objects) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(objects.size());
  for (const mio::Object& o : objects.objects()) {
    mix(o.points.size());
    for (const mio::Point& p : o.points) {
      for (double c : {p.x, p.y, p.z}) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &c, sizeof bits);
        mix(bits);
      }
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// --- Oracle ----------------------------------------------------------------

/// NL-kd top-1 per pool radius, parallel to Dataset::pool.
using Answers = std::vector<ScoredObject>;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  mio::Status st = mio::obs::WriteTextFile(path, text);
  if (!st.ok()) Fail(st.ToString());
}

void WriteAnswers(mio::obs::JsonWriter* w, const Dataset& ds,
                  const std::string& fp, const Answers& answers) {
  w->BeginObject();
  w->Key("fingerprint").String(fp);
  w->Key("answers").BeginArray();
  for (std::size_t i = 0; i < answers.size(); ++i) {
    w->BeginObject();
    w->Key("r").Double(ds.pool[i]);
    w->Key("id").UInt(answers[i].id);
    w->Key("score").UInt(answers[i].score);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

/// Answers for `ds` from a parsed golden/cache document, or false when
/// the document was made for other points or other radii.
bool ReadAnswers(const mio::obs::JsonValue& doc, const Dataset& ds,
                 const std::string& fp, Answers* out) {
  const mio::obs::JsonValue* entry = doc.Find(ds.name);
  if (entry == nullptr || entry->GetString("fingerprint") != fp) return false;
  const mio::obs::JsonValue* list = entry->Find("answers");
  if (list == nullptr || list->elements().size() != ds.pool.size()) {
    return false;
  }
  out->clear();
  for (std::size_t i = 0; i < ds.pool.size(); ++i) {
    const mio::obs::JsonValue& a = list->elements()[i];
    // JSON keeps 9 significant digits; pool radii are 0.027 apart.
    if (std::abs(a.GetDouble("r", -1.0) - ds.pool[i]) > 1e-6) return false;
    out->push_back({static_cast<mio::ObjectId>(a.GetUInt("id")),
                    static_cast<std::uint32_t>(a.GetUInt("score"))});
  }
  return true;
}

Answers ComputeAnswers(const mio::ObjectSet& objects, const Dataset& ds) {
  Answers answers;
  for (double r : ds.pool) answers.push_back(mio::NlKdQuery(objects, r).best());
  return answers;
}

/// The committed answers when they match these points; otherwise answers
/// cached in the current directory by an earlier run, or NL-kd computed
/// now and cached (a changed generator costs one slow run, not a failure).
Answers LoadOracle(const std::string& golden_path, const Dataset& ds,
                   const mio::ObjectSet& objects) {
  const std::string fp = Fingerprint(objects);
  const std::string cache_path = "oracle-" + ds.name + "-" + fp + ".json";
  Answers answers;
  for (const std::string& path : {golden_path, cache_path}) {
    mio::obs::JsonValue doc;
    const std::string text = ReadFile(path);
    if (text.empty()) continue;
    if (!mio::obs::ParseJson(text, &doc)) Fail("unparsable oracle " + path);
    const mio::obs::JsonValue* sets = doc.Find("datasets");
    if (sets != nullptr && ReadAnswers(*sets, ds, fp, &answers)) return answers;
  }
  std::fprintf(stderr, "mio_bench: no oracle for %s %s; running NL-kd\n",
               ds.name.c_str(), fp.c_str());
  answers = ComputeAnswers(objects, ds);
  mio::obs::JsonWriter w;
  w.BeginObject().Key("schema").String("mio-bench-golden-v1");
  w.Key("datasets").BeginObject().Key(ds.name);
  WriteAnswers(&w, ds, fp, answers);
  w.EndObject().EndObject();
  WriteFile(cache_path, std::move(w).Take() + "\n");
  return answers;
}

int MakeGolden(const std::string& path) {
  mio::obs::JsonWriter w;
  w.BeginObject().Key("schema").String("mio-bench-golden-v1");
  w.Key("datasets").BeginObject();
  for (const Dataset& ds : {Syn(), Bird()}) {
    mio::ObjectSet objects = mio::datagen::MakePreset(
        ds.preset, mio::datagen::Scale::kQuick, kDatasetSeed);
    w.Key(ds.name);
    WriteAnswers(&w, ds, Fingerprint(objects), ComputeAnswers(objects, ds));
  }
  w.EndObject().EndObject();
  WriteFile(path, std::move(w).Take() + "\n");
  return 0;
}

/// tau(o) recounted with plain loops and a bounding-box prefilter,
/// independent of the library's grids and kernels. The predicate is the
/// library's: (dx*dx + dy*dy) + dz*dz <= r*r.
std::uint32_t BruteScore(const mio::ObjectSet& objects, mio::ObjectId id,
                         double r) {
  const mio::Object& a = objects[id];
  double lo[3] = {kInf, kInf, kInf}, hi[3] = {-kInf, -kInf, -kInf};
  for (const mio::Point& p : a.points) {
    const double c[3] = {p.x, p.y, p.z};
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], c[d] - r);
      hi[d] = std::max(hi[d], c[d] + r);
    }
  }
  const double r2 = r * r;
  std::uint32_t score = 0;
  for (std::size_t j = 0; j < objects.size(); ++j) {
    if (j == id) continue;
    bool hit = false;
    for (const mio::Point& q : objects[j].points) {
      if (q.x < lo[0] || q.x > hi[0] || q.y < lo[1] || q.y > hi[1] ||
          q.z < lo[2] || q.z > hi[2]) {
        continue;
      }
      for (const mio::Point& p : a.points) {
        const double dx = p.x - q.x, dy = p.y - q.y, dz = p.z - q.z;
        if ((dx * dx + dy * dy) + dz * dz <= r2) {
          hit = true;
          break;
        }
      }
      if (hit) break;
    }
    score += hit;
  }
  return score;
}

/// Checks top-1 answers against the NL-kd maximum per pool radius. An
/// answer is correct when its score is that maximum and the object really
/// has that score. Among equal-score ties BIGrid may return another object
/// than NL-kd's lowest id (verification stops once no upper bound beats
/// the best score), so any other object is recounted by BruteScore,
/// memoised per radius and object.
class Oracle {
 public:
  explicit Oracle(Answers answers) : answers_(std::move(answers)) {}

  bool Correct(const mio::ObjectSet& objects, std::size_t idx, double r,
               const ScoredObject& got) {
    const ScoredObject& want = answers_[idx];
    if (got.score != want.score) return false;
    if (got.id == want.id) return true;
    auto [it, fresh] = recount_.try_emplace({idx, got.id}, 0);
    if (fresh) it->second = BruteScore(objects, got.id, r);
    return it->second == want.score;
  }

  const ScoredObject& Expected(std::size_t idx) const { return answers_[idx]; }

 private:
  Answers answers_;
  std::map<std::pair<std::size_t, mio::ObjectId>, std::uint32_t> recount_;
};

// --- Measurement -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string mio;     ///< the `mio` CLI, for `mio serve`
  std::string golden;
  std::string trace_out;
};

/// One span of the traced run. Spans from the bench's own timers are
/// "timed"; spans rebuilt from the stats or qlog the program returns sit
/// back to back inside their parent ("stats" / "qlog") — their durations
/// are measured, their positions are not.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t query = 0;
  double start_ms = 0.0;
  double dur_ms = 0.0;
  const char* source = "timed";
};

class SpanLog {
 public:
  std::uint64_t Add(const std::string& name, std::uint64_t parent,
                    std::uint64_t query, double start_ms, double dur_ms,
                    const char* source) {
    spans_.push_back({name, spans_.size() + 1, parent, query, start_ms,
                      dur_ms, source});
    return spans_.size();
  }

  /// Closes a span opened with a placeholder duration.
  void SetDuration(std::uint64_t id, double dur_ms) {
    spans_[id - 1].dur_ms = dur_ms;
  }

  /// The five engine phases of `stats` as children of `parent`.
  void AddPhases(const mio::PhaseTimes& ph, std::uint64_t parent,
                 std::uint64_t query, double start_ms, const char* source) {
    const std::pair<const char*, double> phases[] = {
        {"label_input", ph.label_input},
        {"grid_mapping", ph.grid_mapping},
        {"lower_bounding", ph.lower_bounding},
        {"upper_bounding", ph.upper_bounding},
        {"verification", ph.verification}};
    for (const auto& [name, s] : phases) {
      Add(name, parent, query, start_ms, s * 1e3, source);
      start_ms += s * 1e3;
    }
  }

  /// Self time per span name: duration minus the children's durations.
  std::map<std::string, double> SelfMs() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_ms;
    for (const Span& s : spans_) {
      if (s.parent != 0) self[s.parent - 1] -= s.dur_ms;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += self[i];
    }
    return out;
  }

  void Write(mio::obs::JsonWriter* w) const {
    w->BeginArray();
    for (const Span& s : spans_) {
      w->BeginObject();
      w->Key("name").String(s.name);
      w->Key("id").UInt(s.id);
      w->Key("parent").UInt(s.parent);
      w->Key("query").UInt(s.query);
      w->Key("start_ms").Double(s.start_ms);
      w->Key("dur_ms").Double(s.dur_ms);
      w->Key("source").String(s.source);
      w->EndObject();
    }
    w->EndArray();
  }

 private:
  std::vector<Span> spans_;
};

/// Per-layer numbers from the engine stats of every executed query.
struct EngineTally {
  double queries = 0, grid_ms = 0, lb_ms = 0, ub_ms = 0, verify_ms = 0;
  double residual_ms = 0, candidates_share = 0, verified = 0, candidates = 0;
  double dist_comps = 0, label_hits = 0, pruned_share = 0, reused_grid = 0;

  void Add(const QueryStats& s, std::size_t objects) {
    queries += 1;
    grid_ms += s.phases.grid_mapping * 1e3;
    lb_ms += s.phases.lower_bounding * 1e3;
    ub_ms += s.phases.upper_bounding * 1e3;
    verify_ms += s.phases.verification * 1e3;
    residual_ms += (s.total_seconds - s.phases.Total()) * 1e3;
    candidates_share += static_cast<double>(s.num_candidates) / objects;
    candidates += s.num_candidates;
    verified += s.num_verified;
    dist_comps += s.distance_computations;
    label_hits += s.label_outcome == mio::LabelOutcome::kHitMemory ||
                  s.label_outcome == mio::LabelOutcome::kHitDisk;
    pruned_share += static_cast<double>(s.points_pruned_by_labels) /
                    std::max<std::size_t>(s.total_points, 1);
    reused_grid += s.reused_grid;
  }

  /// A server qlog record of an executed request. The qlog does not say
  /// whether the grid came from the cache, so grid_cache.reuse_share
  /// stays 0 on serve-mix.
  void Add(const mio::obs::QlogRecord& rec, std::size_t total_points) {
    QueryStats s;
    s.phases.label_input = rec.phase_label_input;
    s.phases.grid_mapping = rec.phase_grid_mapping;
    s.phases.lower_bounding = rec.phase_lower_bounding;
    s.phases.upper_bounding = rec.phase_upper_bounding;
    s.phases.verification = rec.phase_verification;
    s.total_seconds = rec.total_seconds;
    s.num_candidates = rec.candidates;
    s.num_verified = rec.verified;
    s.distance_computations = rec.distance_computations;
    s.label_outcome = rec.LabelHit() ? mio::LabelOutcome::kHitMemory
                                     : mio::LabelOutcome::kMiss;
    s.points_pruned_by_labels = rec.points_pruned_by_labels;
    s.total_points = total_points;
    Add(s, rec.objects);
  }

  void Emit(std::map<std::string, double>* out) const {
    const double n = std::max(queries, 1.0);
    (*out)["bigrid.build_ms"] = grid_ms / n;
    (*out)["lb.ms"] = lb_ms / n;
    (*out)["ub.ms"] = ub_ms / n;
    (*out)["ub.candidates_per_object"] = candidates_share / n;
    (*out)["verify.ms"] = verify_ms / n;
    (*out)["verify.verified_per_candidate"] = verified / std::max(candidates, 1.0);
    (*out)["verify.dist_comps"] = dist_comps / n;
    (*out)["engine.residual_ms"] = residual_ms / n;
    (*out)["labels.hit_share"] = label_hits / n;
    (*out)["labels.points_pruned_share"] = pruned_share / n;
    (*out)["grid_cache.reuse_share"] = reused_grid / n;
  }
};

struct BatchTally {
  double batches = 0, grid_builds = 0, builds_saved = 0, partitioned = 0;
  double arena_mb = 0;

  void Add(const mio::BatchStats& s) {
    batches += 1;
    grid_builds += s.grid_builds;
    builds_saved += s.grid_builds_saved;
    partitioned += s.cells_partitioned;
    arena_mb += s.arena_high_water_bytes / 1048576.0;
  }

  void Emit(std::map<std::string, double>* out) const {
    const double n = std::max(batches, 1.0);
    (*out)["batch.grid_builds"] = grid_builds / n;
    (*out)["batch.grid_builds_saved"] = builds_saved / n;
    (*out)["batch.cells_partitioned"] = partitioned / n;
    (*out)["batch.arena_high_water_mb"] = arena_mb / n;
  }
};

/// Server-side shares from client records joined with the qlog.
struct ServerTally {
  double requests = 0, executed = 0, coalesced = 0, cached = 0, refused = 0;
  double client_s = 0, queue_s = 0, transport_s = 0;

  void Emit(std::map<std::string, double>* out) const {
    const double n = std::max(requests, 1.0);
    const double c = client_s > 0 ? client_s : 1.0;
    (*out)["server.executed_share"] = executed / n;
    (*out)["server.coalesced_share"] = coalesced / n;
    (*out)["server.cached_share"] = cached / n;
    (*out)["server.refused_share"] = refused / n;
    (*out)["server.queue_wait_share"] = queue_s / c;
    (*out)["server.transport_share"] = transport_s / c;
  }
};

/// What one workload run measured.
struct Report {
  std::vector<double> setup_s;
  std::vector<double> load_s;
  std::vector<double> latency_ms;  ///< per blocking call; failures are inf
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t ok_queries = 0;
  std::size_t mismatches = 0;
  double measured_s = 0.0;
  double peak_rss_mb = 0.0;

  // Traced run only.
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double call_residual_ms = 0.0;  ///< summed over traced calls
  double traced_calls = 0.0;
  EngineTally engine;
  BatchTally batch;
  ServerTally server;
  std::map<std::string, double> layers;
  std::map<std::string, double> server_ms;  ///< serve-mix stage split
  SpanLog spans;
};

/// Compares one answer with the oracle; a mismatch fails the run.
void Check(Report* rep, Oracle* oracle, const mio::ObjectSet& objects,
           std::size_t idx, double r, const std::vector<ScoredObject>& topk) {
  if (!topk.empty() && oracle->Correct(objects, idx, r, topk[0])) return;
  if (rep->mismatches++ == 0) {
    const ScoredObject& want = oracle->Expected(idx);
    std::fprintf(stderr,
                 "mio_bench: r=%.9g answered %s, oracle says tau=%u "
                 "(object %u)\n",
                 r,
                 topk.empty() ? "nothing"
                              : ("object " + std::to_string(topk[0].id) +
                                 " tau=" + std::to_string(topk[0].score))
                                    .c_str(),
                 want.score, want.id);
  }
}

/// Books one query. Every query of the run counts toward attempted and
/// failed and has its answer checked; only `measured` (untraced) queries
/// give latency samples, and a failed one counts as infinitely slow.
/// Returns whether the query succeeded.
bool Record(Report* rep, Oracle* oracle, const mio::ObjectSet& objects,
            std::size_t idx, double r, const QueryResult& res, double wall_s,
            bool measured) {
  ++rep->attempted;
  const bool ok = res.status.ok() && res.complete;
  if (ok) {
    Check(rep, oracle, objects, idx, r, res.topk);
  } else {
    ++rep->failed;
  }
  if (measured) {
    rep->ok_queries += ok;
    rep->latency_ms.push_back(ok ? wall_s * 1e3 : kInf);
  }
  return ok;
}

/// Runs whole rounds until the next one would end past `seconds` (at
/// least one), so every run measures the same multiset of queries.
template <typename F>
double RunRounds(double seconds, F&& round) {
  Timer t;
  int rounds = 0;
  do {
    round();
    ++rounds;
  } while (t.ElapsedSeconds() * (rounds + 1) / rounds <= seconds);
  return t.ElapsedSeconds();
}

/// Generates a preset, writes it with SaveDatasetBinary, and loads its
/// oracle answers. The in-memory copy is dropped before set-up starts.
Oracle PrepareDataset(const Options& opt, const Dataset& ds) {
  mio::ObjectSet objects = mio::datagen::MakePreset(
      ds.preset, mio::datagen::Scale::kQuick, kDatasetSeed);
  mio::Status st = mio::SaveDatasetBinary(objects, ds.name + ".bin");
  if (!st.ok()) Fail(st.ToString());
  return Oracle(LoadOracle(opt.golden, ds, objects));
}

/// The io layer's public entry, timed.
std::unique_ptr<mio::ObjectSet> LoadTimed(const Dataset& ds, Report* rep) {
  Timer t;
  mio::Result<mio::ObjectSet> loaded = mio::LoadDatasetBinary(ds.name + ".bin");
  if (!loaded.ok()) Fail(loaded.status().ToString());
  rep->load_s.push_back(t.ElapsedSeconds());
  return std::make_unique<mio::ObjectSet>(std::move(loaded).value());
}

int Setups(const Options& opt) { return opt.smoke ? 1 : 5; }

/// Per-layer probe of core/bigrid and geo/kernels on the workload's data:
/// one fresh grid per ceil(r) class of `radii`, its size, and AnyWithin
/// timed over the real posting spans of its large cells (probe point:
/// the cell's first posting point; the spans: the cell's other postings).
void ProbeGrids(const mio::ObjectSet& objects, const std::vector<double>& radii,
                std::map<std::string, double>* out) {
  std::map<int, double> classes;
  for (double r : radii) classes.emplace(CeilClass(r), r);
  double small = 0, large = 0, index_mb = 0, spans = 0, inline_spans = 0;
  double points = 0, scanned = 0, ns = 0;
  for (const auto& [ceil_r, r] : classes) {
    mio::BiGrid grid(objects, r, objects.IsPlanar());
    grid.Build();
    small += grid.NumSmallCells();
    large += grid.NumLargeCells();
    index_mb += grid.MemoryUsage().Total() / 1048576.0;
    struct Probe {
      mio::Point q;
      mio::PostingView span;
    };
    std::vector<Probe> probes;
    grid.ForEachLargeCell([&](const mio::CellKey&, mio::LargeCell& cell) {
      if (cell.post_obj.size() < 2) return;
      const mio::Point q = cell.PostingAt(0)[0];
      for (std::size_t i = 1; i < cell.post_obj.size(); ++i) {
        probes.push_back({q, cell.PostingAt(i)});
      }
    });
    for (const Probe& p : probes) {
      spans += 1;
      points += p.span.size;
      inline_spans += p.span.size <= mio::kernel_detail::kInlineBatchCutoff;
    }
    const double r2 = r * r;
    Timer t;
    std::size_t class_scanned = 0;
    do {
      for (const Probe& p : probes) {
        std::ptrdiff_t hit = mio::AnyWithin(p.q, p.span.xs, p.span.ys,
                                            p.span.zs, p.span.size, r2);
        class_scanned += hit < 0 ? p.span.size : static_cast<std::size_t>(hit) + 1;
      }
    } while (t.ElapsedSeconds() < 0.02 && !probes.empty());
    ns += t.ElapsedSeconds() * 1e9;
    scanned += class_scanned;
  }
  const double n = std::max<double>(classes.size(), 1.0);
  (*out)["bigrid.cells_small"] = small / n;
  (*out)["bigrid.cells_large"] = large / n;
  (*out)["bigrid.index_mb"] = index_mb / n;
  (*out)["kernels.ns_per_point"] = ns / std::max(scanned, 1.0);
  (*out)["kernels.inline_span_share"] = inline_spans / std::max(spans, 1.0);
  (*out)["kernels.mean_span_points"] = points / std::max(spans, 1.0);
}

// --- syn-cold --------------------------------------------------------------

/// The paper's BIGrid path, replayed through the public phase functions so
/// each phase gets a timed span. The root span closes after the grid is
/// freed, as Query's wall does. Returns the top-k.
std::vector<ScoredObject> ReplayTraced(const mio::MioEngine& engine, double r,
                                       std::uint64_t query, Report* rep) {
  SpanLog& log = rep->spans;
  const double t0 = NowMs();
  const std::uint64_t root = log.Add("query", 0, query, t0, 0.0, "timed");
  auto phase = [&](const char* name, auto&& fn) {
    const double start = NowMs();
    fn();
    log.Add(name, root, query, start, NowMs() - start, "timed");
  };
  std::vector<ScoredObject> topk;
  {
    QueryStats stats;
    mio::BiGrid grid(engine.objects(), r, engine.planar());
    phase("grid_mapping", [&] { grid.Build(); });
    mio::LowerBoundResult lb;
    phase("lower_bounding", [&] { lb = mio::LowerBounding(grid, false); });
    mio::UpperBoundResult ub;
    phase("upper_bounding", [&] {
      ub = mio::UpperBounding(grid, lb.tau_low_max, nullptr, nullptr, &stats);
    });
    phase("verification", [&] {
      topk = mio::Verification(grid, ub, 1, nullptr, nullptr, nullptr, &stats);
    });
  }
  log.SetDuration(root, NowMs() - t0);
  rep->traced_s += (NowMs() - t0) / 1e3;
  return topk;
}

Report RunSynCold(const Options& opt) {
  const Dataset ds = Syn();
  Oracle oracle = PrepareDataset(opt, ds);
  Report rep;
  std::unique_ptr<mio::ObjectSet> objects;
  std::unique_ptr<mio::MioEngine> engine;
  for (int i = 0; i < Setups(opt); ++i) {
    engine.reset();
    objects.reset();
    Timer t;
    objects = LoadTimed(ds, &rep);
    engine = std::make_unique<mio::MioEngine>(*objects);
    rep.setup_s.push_back(t.ElapsedSeconds());
  }

  // Cold: labels and grid reuse off, so every query builds both grids.
  mio::QueryOptions qopt;
  mio::Pcg32 rng(opt.seed, 11);
  std::vector<std::size_t> order;
  for (std::size_t i = opt.smoke ? ds.pool.size() - 2 : 0; i < ds.pool.size();
       ++i) {
    order.push_back(i);
  }
  std::uint64_t query = 0;
  rep.measured_s = RunRounds(opt.seconds, [&] {
    Shuffle(&order, &rng);
    for (std::size_t idx : order) {
      const double r = ds.pool[idx];
      Timer t;
      QueryResult res = engine->Query(r, qopt);
      const double wall = t.ElapsedSeconds();
      if (!Record(&rep, &oracle, *objects, idx, r, res, wall, true) ||
          !opt.trace) {
        continue;
      }
      rep.untraced_s += wall;
      rep.engine.Add(res.stats, objects->size());
      rep.call_residual_ms += (wall - res.stats.total_seconds) * 1e3;
      rep.traced_calls += 1;
      std::vector<ScoredObject> replay =
          ReplayTraced(*engine, r, ++query, &rep);
      // The replay must be the same computation as Query.
      if (replay.empty() || replay[0].id != res.topk[0].id ||
          replay[0].score != res.topk[0].score) {
        Fail("traced replay disagrees with Query at r=" + std::to_string(r));
      }
    }
  });
  if (opt.trace) ProbeGrids(*objects, ds.pool, &rep.layers);
  return rep;
}

// --- bird-warm -------------------------------------------------------------

Report RunBirdWarm(const Options& opt) {
  const Dataset ds = Bird();
  Oracle oracle = PrepareDataset(opt, ds);
  Report rep;
  mio::Pcg32 rng(opt.seed, 22);

  const std::vector<std::size_t> priming = PrimingRadii(ds, &rng);
  mio::QueryOptions qopt;
  qopt.use_labels = qopt.record_labels = qopt.reuse_grid = true;
  std::unique_ptr<mio::ObjectSet> objects;
  std::unique_ptr<mio::MioEngine> engine;
  for (int i = 0; i < (opt.smoke ? 1 : 3); ++i) {
    engine.reset();
    objects.reset();
    Timer t;
    objects = LoadTimed(ds, &rep);
    engine = std::make_unique<mio::MioEngine>(*objects);
    for (std::size_t idx : priming) {
      const double r = ds.pool[idx];
      if (!Record(&rep, &oracle, *objects, idx, r, engine->Query(r, qopt), 0.0,
                  false)) {
        Fail("a priming query failed");
      }
    }
    rep.setup_s.push_back(t.ElapsedSeconds());
  }

  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < (opt.smoke ? 8 : ds.pool.size()); ++i) {
    order.push_back(i);
  }
  std::uint64_t query = 0;
  rep.measured_s = RunRounds(opt.seconds, [&] {
    Shuffle(&order, &rng);
    for (std::size_t idx : order) {
      const double r = ds.pool[idx];
      Timer t;
      QueryResult res = engine->Query(r, qopt);
      const double wall = t.ElapsedSeconds();
      Record(&rep, &oracle, *objects, idx, r, res, wall, true);
      if (!opt.trace) continue;
      // The labelled path has no public phase functions: the traced call
      // is the same Query inside a timed span, its phases from the stats.
      rep.untraced_s += wall;
      const double start = NowMs();
      Timer tt;
      QueryResult traced = engine->Query(r, qopt);
      const double traced_wall = tt.ElapsedSeconds();
      if (!Record(&rep, &oracle, *objects, idx, r, traced, traced_wall,
                  false)) {
        continue;
      }
      rep.traced_s += traced_wall;
      const std::uint64_t root =
          rep.spans.Add("query", 0, ++query, start, traced_wall * 1e3, "timed");
      rep.spans.AddPhases(traced.stats.phases, root, query, start, "stats");
      rep.engine.Add(traced.stats, objects->size());
      rep.call_residual_ms += (traced_wall - traced.stats.total_seconds) * 1e3;
      rep.traced_calls += 1;
    }
  });
  if (opt.trace) ProbeGrids(*objects, ds.pool, &rep.layers);
  return rep;
}

// --- bird-batch ------------------------------------------------------------

Report RunBirdBatch(const Options& opt) {
  const Dataset ds = Bird();
  Oracle oracle = PrepareDataset(opt, ds);
  Report rep;
  std::unique_ptr<mio::ObjectSet> objects;
  for (int i = 0; i < Setups(opt); ++i) {
    objects.reset();
    Timer t;
    objects = LoadTimed(ds, &rep);
    rep.setup_s.push_back(t.ElapsedSeconds());
  }

  // Every batch has the same shape, 3 radii from each of the 7 ceil(r)
  // classes (1 in smoke runs), so batch walls are comparable across seeds.
  std::map<int, std::vector<std::size_t>> by_class = ByClass(ds);
  const std::size_t per_class = opt.smoke ? 1 : 3;
  mio::Pcg32 rng(opt.seed, 33);
  std::uint64_t query = 0;

  // Runs one batch on a fresh engine, so class grids are built inside the
  // call. A batch with a failed member misses every latency limit.
  auto run_batch = [&](const std::vector<std::size_t>& members, bool traced) {
    std::vector<mio::BatchQuery> batch;
    for (std::size_t idx : members) {
      mio::BatchQuery q;
      q.r = ds.pool[idx];
      q.options.use_labels = q.options.record_labels = true;
      batch.push_back(q);
    }
    mio::MioEngine engine(*objects);
    const double start = NowMs();
    Timer t;
    mio::BatchResult res = engine.QueryBatch(batch);
    const double wall = t.ElapsedSeconds();
    std::size_t ok = 0;
    for (std::size_t m = 0; m < members.size(); ++m) {
      ok += Record(&rep, &oracle, *objects, members[m], batch[m].r,
                   res.results[m], 0.0, false);
    }
    if (!traced) {
      rep.ok_queries += ok;
      rep.latency_ms.push_back(ok == members.size() ? wall * 1e3 : kInf);
      rep.untraced_s += wall;
      return;
    }
    rep.traced_s += wall;
    rep.batch.Add(res.stats);
    const std::uint64_t root =
        rep.spans.Add("batch", 0, ++query, start, wall * 1e3, "timed");
    double member_start = start;
    double engine_s = 0.0;
    for (const QueryResult& qr : res.results) {
      const std::uint64_t m = rep.spans.Add(
          "query", root, query, member_start, qr.stats.total_seconds * 1e3,
          "stats");
      rep.spans.AddPhases(qr.stats.phases, m, query, member_start, "stats");
      member_start += qr.stats.total_seconds * 1e3;
      engine_s += qr.stats.total_seconds;
      rep.engine.Add(qr.stats, objects->size());
    }
    rep.call_residual_ms += (wall - engine_s) * 1e3;
    rep.traced_calls += 1;
  };

  rep.measured_s = RunRounds(opt.seconds, [&] {
    std::vector<std::size_t> members;
    for (auto& [c, pool] : by_class) {
      Shuffle(&pool, &rng);
      members.insert(members.end(), pool.begin(), pool.begin() + per_class);
    }
    Shuffle(&members, &rng);
    run_batch(members, false);
    if (opt.trace) run_batch(members, true);
  });
  if (opt.trace) ProbeGrids(*objects, ds.pool, &rep.layers);
  return rep;
}

// --- serve-mix -------------------------------------------------------------

/// VmHWM of process `pid` in MiB (0 when unreadable).
double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

/// A `mio serve` child. The destructor stops it (SIGTERM, then SIGKILL
/// after 10 s) and reaps it; the child also dies with this process.
class ServerProcess {
 public:
  ServerProcess(const std::string& mio, const std::string& dataset,
                const std::string& qlog) {
    std::vector<std::string> args = {mio,
                                     "serve",
                                     "--in=" + dataset,
                                     std::string("--socket=") + kSocket,
                                     "--workers=2"};
    if (!qlog.empty()) args.push_back("--qlog=" + qlog);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) Fail("fork failed");
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int log = ::open("serve.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }

  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Polls `ping` until the server answers OK; false after 30 s or when
  /// the server exits.
  bool WaitReady() {
    mio::server::ClientConfig cfg;
    cfg.socket_path = kSocket;
    cfg.attempts = 1;
    mio::server::ServeRequest ping;
    ping.op = "ping";
    Timer t;
    while (t.ElapsedSeconds() < 30.0) {
      mio::server::ServeResponse res;
      if (mio::server::Call(cfg, ping, &res).ok() &&
          res.status == mio::StatusCode::kOk) {
        return true;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      ::usleep(1000);
    }
    return false;
  }

  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      ::usleep(10000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

struct ClientRecord {
  std::size_t idx = 0;
  double start_ms = 0.0;
  double wall_s = 0.0;
  bool ok = false;
  bool refused = false;
  mio::server::ServeResponse res;
};

/// One query request through the shipped client, timed.
ClientRecord Send(const Dataset& ds, std::size_t idx, std::string id) {
  mio::server::ClientConfig cfg;
  cfg.socket_path = kSocket;
  mio::server::ServeRequest req;
  req.id = std::move(id);
  req.r = ds.pool[idx];
  req.use_labels = true;
  ClientRecord rec;
  rec.idx = idx;
  rec.start_ms = NowMs();
  Timer t;
  mio::Status st = mio::server::Call(cfg, req, &rec.res);
  rec.wall_s = t.ElapsedSeconds();
  rec.ok = st.ok() && rec.res.status == mio::StatusCode::kOk;
  rec.refused = st.code() == mio::StatusCode::kOverloaded;
  return rec;
}

/// Closed loop: each client sends its next request when the previous
/// reply arrives, one connection per request (the shipped client).
std::vector<ClientRecord> ClosedLoop(const Options& opt, const Dataset& ds,
                                     int clients, double seconds) {
  std::vector<std::size_t> hot, cold;
  for (std::size_t i = 0; i < ds.pool.size(); ++i) {
    (IsHot(i) ? hot : cold).push_back(i);
  }
  std::vector<std::vector<ClientRecord>> per_client(clients);
  std::vector<std::thread> threads;
  const Timer clock;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      mio::Pcg32 rng(opt.seed, 100 + c);
      for (int n = 0; clock.ElapsedSeconds() < seconds; ++n) {
        const std::vector<std::size_t>& from =
            rng.NextDouble() < kHotShare ? hot : cold;
        const std::size_t idx =
            from[rng.NextBounded(static_cast<std::uint32_t>(from.size()))];
        per_client[c].push_back(Send(
            ds, idx, "c" + std::to_string(c) + "-" + std::to_string(n)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<ClientRecord> all;
  for (auto& recs : per_client) {
    all.insert(all.end(), std::make_move_iterator(recs.begin()),
               std::make_move_iterator(recs.end()));
  }
  return all;
}

double MeanWall(const std::vector<ClientRecord>& recs) {
  double sum = 0.0;
  for (const ClientRecord& rec : recs) sum += rec.wall_s;
  return sum / std::max<std::size_t>(recs.size(), 1);
}

/// Books client records the way Record books in-process queries.
void BookRequests(Report* rep, Oracle* oracle, const mio::ObjectSet& objects,
                  const Dataset& ds, const std::vector<ClientRecord>& recs,
                  bool measured) {
  for (const ClientRecord& rec : recs) {
    ++rep->attempted;
    if (rec.ok) {
      Check(rep, oracle, objects, rec.idx, ds.pool[rec.idx], rec.res.topk);
    } else {
      ++rep->failed;
    }
    if (measured) {
      rep->ok_queries += rec.ok;
      rep->latency_ms.push_back(rec.ok ? rec.wall_s * 1e3 : kInf);
    }
  }
}

/// Joins the traced half's client records with the server qlog by
/// request id: the server stage split, its shares, and the spans.
void JoinQlog(Report* rep, const std::vector<ClientRecord>& recs,
              const std::string& qlog_path, std::size_t total_points) {
  mio::Result<std::vector<mio::obs::QlogRecord>> loaded =
      mio::obs::LoadQlogFile(qlog_path);
  if (!loaded.ok()) Fail(loaded.status().ToString());
  std::map<std::string, const mio::obs::QlogRecord*> by_id;
  for (const mio::obs::QlogRecord& q : loaded.value()) {
    by_id[q.server_request_id] = &q;
  }
  std::vector<double> queue_ms, exec_ms, transport_ms, residual_ms;
  ServerTally& st = rep->server;
  std::uint64_t query = 0;
  for (const ClientRecord& rec : recs) {
    st.requests += 1;
    st.refused += rec.refused;
    auto it = by_id.find(rec.res.request_id);
    if (!rec.ok || it == by_id.end()) continue;
    const mio::obs::QlogRecord& q = *it->second;
    const bool executed = q.ServerExecuted();
    st.executed += executed;
    st.coalesced += q.server_role == "follower";
    st.cached += q.server_role == "cached";
    const double client_ms = rec.wall_s * 1e3;
    const double server_ms = q.server_e2e_seconds * 1e3;
    st.client_s += rec.wall_s;
    st.queue_s += q.server_queue_wait_seconds;
    st.transport_s += rec.wall_s - q.server_e2e_seconds;
    transport_ms.push_back(client_ms - server_ms);
    rep->call_residual_ms +=
        client_ms - (executed ? q.total_seconds * 1e3 : 0.0);
    rep->traced_calls += 1;

    const std::uint64_t root =
        rep->spans.Add("request", 0, ++query, rec.start_ms, client_ms, "timed");
    const double server_start = rec.start_ms + (client_ms - server_ms) / 2;
    const std::uint64_t server =
        rep->spans.Add("server", root, query, server_start, server_ms, "qlog");
    if (!executed) continue;
    const double wait_ms = q.server_queue_wait_seconds * 1e3;
    const double run_ms = q.wall_seconds * 1e3;
    queue_ms.push_back(wait_ms);
    exec_ms.push_back(run_ms);
    residual_ms.push_back(server_ms - wait_ms - run_ms);
    rep->spans.Add("queue_wait", server, query, server_start, wait_ms, "qlog");
    const std::uint64_t exec = rep->spans.Add(
        "execute", server, query, server_start + wait_ms, run_ms, "qlog");
    mio::PhaseTimes ph;
    ph.label_input = q.phase_label_input;
    ph.grid_mapping = q.phase_grid_mapping;
    ph.lower_bounding = q.phase_lower_bounding;
    ph.upper_bounding = q.phase_upper_bounding;
    ph.verification = q.phase_verification;
    rep->spans.AddPhases(ph, exec, query, server_start + wait_ms, "qlog");
    rep->engine.Add(q, total_points);
  }
  using mio::obs::Percentile;
  rep->server_ms["queue_wait_p50_ms"] = Percentile(queue_ms, 0.5);
  rep->server_ms["queue_wait_p99_ms"] = Percentile(queue_ms, 0.99);
  rep->server_ms["exec_p50_ms"] = Percentile(exec_ms, 0.5);
  rep->server_ms["transport_p50_ms"] = Percentile(transport_ms, 0.5);
  rep->server_ms["residual_p50_ms"] = Percentile(residual_ms, 0.5);
}

Report RunServeMix(const Options& opt) {
  const Dataset ds = Bird();
  Oracle oracle = PrepareDataset(opt, ds);
  const std::string dataset = ds.name + ".bin";
  Report rep;
  // The server loads its own copy; this one serves the oracle's recounts
  // and the probe grids.
  std::unique_ptr<mio::ObjectSet> objects = LoadTimed(ds, &rep);
  mio::Pcg32 rng(opt.seed, 44);
  const std::vector<std::size_t> priming = PrimingRadii(ds, &rng);

  // Set-up ends once the server has answered one query per ceil(r) class,
  // as bird-warm's does, so labels are recorded one class at a time rather
  // than by whichever first requests of the clients happen to overlap.
  auto start = [&](const std::string& qlog) {
    auto server = std::make_unique<ServerProcess>(opt.mio, dataset, qlog);
    if (!server->WaitReady()) Fail("mio serve did not answer ping");
    std::vector<ClientRecord> recs;
    for (std::size_t idx : priming) recs.push_back(Send(ds, idx, "prime"));
    const std::size_t failed = rep.failed;
    BookRequests(&rep, &oracle, *objects, ds, recs, false);
    if (rep.failed != failed) Fail("a priming request failed");
    return server;
  };
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < (opt.smoke ? 1 : 3); ++i) {
    server.reset();
    Timer t;
    server = start("");
    rep.setup_s.push_back(t.ElapsedSeconds());
  }

  const int clients = opt.smoke ? 2 : 4;
  const double half = opt.trace ? opt.seconds / 2 : opt.seconds;
  Timer t;
  std::vector<ClientRecord> recs = ClosedLoop(opt, ds, clients, half);
  rep.measured_s = t.ElapsedSeconds();
  BookRequests(&rep, &oracle, *objects, ds, recs, true);
  rep.peak_rss_mb = PeakRssMb(server->pid());
  server.reset();

  if (opt.trace) {
    // The traced half runs a fresh server with its qlog on.
    const std::string qlog = "serve-qlog.jsonl";
    std::remove(qlog.c_str());
    server = start(qlog);
    std::vector<ClientRecord> traced = ClosedLoop(opt, ds, clients, half);
    server.reset();  // drains and closes the qlog
    BookRequests(&rep, &oracle, *objects, ds, traced, false);
    JoinQlog(&rep, traced, qlog, objects->Stats().nm);
    // The halves complete different numbers of requests, so overhead
    // compares mean latency.
    rep.untraced_s = MeanWall(recs);
    rep.traced_s = MeanWall(traced);
    ProbeGrids(*objects, ds.pool, &rep.layers);
  }
  return rep;
}

// --- Output ----------------------------------------------------------------

void WriteHost(mio::obs::JsonWriter* w) {
  w->BeginObject();
  w->Key("cpus").UInt(std::thread::hardware_concurrency());
  w->Key("kernel_tier").String(mio::KernelTierName(mio::ActiveKernelTier()));
  w->Key("pmu_tier").String(mio::obs::PmuTierName(mio::obs::ActivePmuTier()));
  w->Key("git").String(mio::obs::GitDescribe());
  w->EndObject();
}

void WriteMap(mio::obs::JsonWriter* w, const std::map<std::string, double>& m) {
  w->BeginObject();
  for (const auto& [k, v] : m) w->Key(k).Double(v);
  w->EndObject();
}

std::map<std::string, double> EndToEnd(const Report& rep) {
  using mio::obs::Percentile;
  std::map<std::string, double> e2e;
  e2e["setup_s"] = mio::obs::Median(rep.setup_s);
  e2e["qps"] = rep.ok_queries / std::max(rep.measured_s, 1e-9);
  e2e["p50_ms"] = Percentile(rep.latency_ms, 0.5);
  e2e["p90_ms"] = Percentile(rep.latency_ms, 0.9);
  e2e["p99_ms"] = Percentile(rep.latency_ms, 0.99);
  e2e["failed_share"] =
      static_cast<double>(rep.failed) / std::max<std::size_t>(rep.attempted, 1);
  e2e["peak_rss_mb"] = rep.peak_rss_mb;
  return e2e;
}

std::map<std::string, double> PerLayer(const Report& rep) {
  std::map<std::string, double> layers = rep.layers;
  rep.engine.Emit(&layers);
  rep.batch.Emit(&layers);
  rep.server.Emit(&layers);
  layers["io.load_ms"] = mio::obs::Median(rep.load_s) * 1e3;
  layers["call.residual_ms"] =
      rep.call_residual_ms / std::max(rep.traced_calls, 1.0);
  layers["trace.overhead_share"] =
      rep.untraced_s > 0 ? rep.traced_s / rep.untraced_s - 1.0 : 0.0;
  return layers;
}

/// One JSON line: host header, outcome counts, and either the end-to-end
/// metrics or, for a traced run, the per-layer metrics with each span
/// name's self time. A traced run interleaves traced calls into its
/// measured phase, so its end-to-end numbers are not reported.
std::string RecordLine(const Options& opt, const Report& rep) {
  mio::obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("mio_bench");
  w.Key("workload").String(opt.workload);
  w.Key("seed").UInt(opt.seed);
  w.Key("trace").Bool(opt.trace);
  w.Key("smoke").Bool(opt.smoke);
  w.Key("host");
  WriteHost(&w);
  w.Key("correct").Bool(rep.mismatches == 0);
  w.Key("attempted").UInt(rep.attempted);
  w.Key("failed").UInt(rep.failed);
  w.Key("samples").UInt(rep.latency_ms.size());
  w.Key("measured_s").Double(rep.measured_s);
  if (!opt.trace) {
    w.Key("e2e");
    WriteMap(&w, EndToEnd(rep));
  } else {
    w.Key("layers");
    WriteMap(&w, PerLayer(rep));
    w.Key("self_ms");
    WriteMap(&w, rep.spans.SelfMs());
    if (!rep.server_ms.empty()) {
      w.Key("server_ms");
      WriteMap(&w, rep.server_ms);
    }
  }
  w.EndObject();
  return std::move(w).Take();
}

void WriteTrace(const Options& opt, const Report& rep) {
  mio::obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("mio-bench-trace-v1");
  w.Key("workload").String(opt.workload);
  w.Key("seed").UInt(opt.seed);
  w.Key("host");
  WriteHost(&w);
  w.Key("self_ms");
  WriteMap(&w, rep.spans.SelfMs());
  w.Key("spans");
  rep.spans.Write(&w);
  w.EndObject();
  WriteFile(opt.trace_out, std::move(w).Take() + "\n");
}

int Main(int argc, char** argv) {
  mio::ArgParser args(argc, argv);
  if (args.Has("make-golden")) {
    return MakeGolden(args.GetString("make-golden", "golden.json"));
  }
  Options opt;
  opt.workload = args.GetString("workload", "");
  opt.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  opt.seconds = args.GetDouble("seconds", 10.0);
  opt.trace = args.GetBool("trace", false);
  opt.smoke = args.GetBool("smoke", false);
  opt.mio = args.GetString("mio", "");
  opt.golden = args.GetString("golden", "");
  opt.trace_out = args.GetString("trace-out", "bench-trace.json");
  if (opt.golden.empty()) Fail("--golden=FILE is required");
  if (opt.seconds <= 0.0) Fail("--seconds must be positive");

  Report rep;
  if (opt.workload == "syn-cold") {
    rep = RunSynCold(opt);
  } else if (opt.workload == "bird-warm") {
    rep = RunBirdWarm(opt);
  } else if (opt.workload == "bird-batch") {
    rep = RunBirdBatch(opt);
  } else if (opt.workload == "serve-mix") {
    if (opt.mio.empty()) Fail("serve-mix needs --mio=PATH");
    rep = RunServeMix(opt);
  } else {
    Fail("unknown --workload '" + opt.workload + "'");
  }
  if (rep.peak_rss_mb == 0.0) {
    rep.peak_rss_mb = mio::obs::ReadProcessHealth().peak_rss_bytes / 1048576.0;
  }
  if (opt.trace) WriteTrace(opt, rep);
  std::printf("%s\n", RecordLine(opt, rep).c_str());
  return rep.mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mio_bench: %s\n", e.what());
    return 2;
  }
}
