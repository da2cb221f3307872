#!/usr/bin/env bash
# Query-log gate: runs a ~100-query workload that mixes ceil(r) classes
# through `mio run-workload` and asserts
#  - every emitted line is a schema-valid mio-qlog-v1 record, indices in
#    order, ceil_r consistent with r, label outcomes legal (first visit
#    of each ceil(r) class records, every revisit hits);
#  - the trace directory holds a Chrome trace for EXACTLY the tail
#    queries — the set recomputed offline from the qlog wall times
#    (threshold exceeders plus slowest-N by (wall, index)) — with one
#    query forced slow via the workload.query_delay fault site so the
#    threshold path is exercised deterministically;
#  - `mio qlog report --json` agrees with an independent R-7 percentile
#    computation and with per-class label-reuse tallies from the qlog;
#  - `mio query --stats-json` writes one such record (with the metrics
#    snapshot) and `mio qlog report` loads it.
# Usage: scripts/check_qlog.sh [build-dir]
#   build-dir  reused if it already contains tools/mio, else configured
#              and built (default build-qlog)
set -eu

BUILD=${1:-build-qlog}
SRC=$(cd "$(dirname "$0")/.." && pwd)
JOBS=$(nproc 2>/dev/null || echo 2)

if [ ! -x "$BUILD/tools/mio" ]; then
  echo "== build: mio CLI ($BUILD) =="
  cmake -B "$BUILD" -S "$SRC" -DCMAKE_BUILD_TYPE=Release \
    -DMIO_BUILD_BENCHMARKS=OFF -DMIO_BUILD_EXAMPLES=OFF -DMIO_BUILD_TESTS=OFF \
    > "$BUILD.cmake.log" 2>&1 || { cat "$BUILD.cmake.log"; exit 1; }
  cmake --build "$BUILD" --target mio_cli -j "$JOBS" \
    > "$BUILD.build.log" 2>&1 || { tail -50 "$BUILD.build.log"; exit 1; }
fi
CLI="$BUILD/tools/mio"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$CLI" generate --preset=bird2 --scale=quick --seed=11 \
  --out="$WORK/data.bin" > /dev/null

# 102 queries cycling six radii across five ceil(r) classes (3, 5, 4, 7,
# 6; 2.1 -> 3 again) — label reuse is exercised on every revisit. The
# sample keeps individual queries far below the tail threshold so the
# tail set stays a strict subset (and slowest-N churn exercises eviction).
cat > "$WORK/mix.spec" <<'SPEC'
name check-qlog-mix
sample 0.25 seed=1
defaults k=1 threads=2 labels=on
repeat 102 r=3,4.5,3.2,6.8,2.1,5.5
SPEC

THRESHOLD_MS=40
SLOWEST_N=5
# nth=7 forces a 50ms busy-wait into query index 6: it must exceed the
# threshold no matter how fast the host is.
echo "== mio run-workload: 102-query ceil(r) mix =="
MIO_FAULT="workload.query_delay:nth=7" \
  "$CLI" run-workload --spec="$WORK/mix.spec" --in="$WORK/data.bin" \
  --qlog="$WORK/run.jsonl" --trace-dir="$WORK/traces" \
  --tail-threshold-ms=$THRESHOLD_MS --tail-slowest=$SLOWEST_N

echo "== mio qlog report --json =="
"$CLI" qlog report --in="$WORK/run.jsonl" --trace-dir="$WORK/traces" \
  --slowest=$SLOWEST_N --json="$WORK/report.json" > /dev/null
# The human-readable formatter must also run clean.
"$CLI" qlog report --in="$WORK/run.jsonl" --trace-dir="$WORK/traces" \
  > /dev/null

echo "== validate qlog, tail set, report =="
python3 - "$WORK" "$THRESHOLD_MS" "$SLOWEST_N" <<'PYEOF'
import json, math, os, sys

work, threshold, slowest_n = sys.argv[1], float(sys.argv[2]) / 1000.0, int(sys.argv[3])

def fail(msg):
    sys.exit("FAILED: " + msg)

OUTCOMES = {"off", "hit_memory", "hit_disk", "recorded", "miss"}
NUMBER, STRING, BOOL = (int, float), str, bool
SHAPE = {  # section -> {field: type}
    "params": {"r": NUMBER, "ceil_r": NUMBER, "k": NUMBER, "threads": NUMBER},
    "phases": {"label_input": NUMBER, "grid_mapping": NUMBER,
               "lower_bounding": NUMBER, "upper_bounding": NUMBER,
               "verification": NUMBER, "total": NUMBER},
    "funnel": {"objects": NUMBER, "candidates": NUMBER, "verified": NUMBER,
               "distance_computations": NUMBER, "tau_low_max": NUMBER},
    "grid": {"reused": BOOL, "cells_small": NUMBER, "cells_large": NUMBER},
    "winner": {"id": NUMBER, "score": NUMBER},
    "labels": {"outcome": STRING, "points_pruned": NUMBER},
    "outcome": {"status": STRING, "complete": BOOL,
                "degradation_level": NUMBER},
    "env": {"git": STRING, "pmu_tier": STRING, "kernel_tier": STRING},
    "memory": {"index_bytes": NUMBER, "peak_bytes": NUMBER},
    "trace": {"dropped_spans": NUMBER},
}

records = []
with open(os.path.join(work, "run.jsonl")) as f:
    for lineno, line in enumerate(f, 1):
        line = line.strip()
        if not line:
            continue
        doc = json.loads(line)  # raises on malformed JSON
        if doc.get("schema") != "mio-qlog-v1":
            fail(f"line {lineno}: schema {doc.get('schema')!r}")
        for key, ty in {"query_index": NUMBER, "workload": STRING,
                        "dataset": STRING, "algo": STRING,
                        "wall_seconds": NUMBER,
                        "total_seconds": NUMBER}.items():
            if not isinstance(doc.get(key), ty) or isinstance(doc.get(key), bool) != (ty is BOOL):
                fail(f"line {lineno}: bad {key!r}: {doc.get(key)!r}")
        for section, fields in SHAPE.items():
            sub = doc.get(section)
            if not isinstance(sub, dict):
                fail(f"line {lineno}: missing section {section!r}")
            for key, ty in fields.items():
                if key not in sub or not isinstance(sub[key], ty) \
                        or isinstance(sub[key], bool) != (ty is BOOL):
                    fail(f"line {lineno}: bad {section}.{key}: {sub.get(key)!r}")
        if doc["labels"]["outcome"] not in OUTCOMES:
            fail(f"line {lineno}: label outcome {doc['labels']['outcome']!r}")
        if doc["params"]["ceil_r"] != math.ceil(doc["params"]["r"]):
            fail(f"line {lineno}: ceil_r != ceil(r)")
        records.append(doc)

if len(records) != 102:
    fail(f"expected 102 records, got {len(records)}")
for i, doc in enumerate(records):
    if doc["query_index"] != i:
        fail(f"record {i} has query_index {doc['query_index']}")
    if doc["outcome"]["status"] != "OK":
        fail(f"query {i}: status {doc['outcome']['status']}")

# Label reuse: the first query of each ceil(r) class records its labels,
# every later one in the class must hit (memory or disk).
seen = set()
for i, doc in enumerate(records):
    ceil_r, outcome = doc["params"]["ceil_r"], doc["labels"]["outcome"]
    if ceil_r not in seen:
        if outcome != "recorded":
            fail(f"query {i}: first ceil_r={ceil_r} visit is {outcome!r}")
        seen.add(ceil_r)
    elif outcome not in ("hit_memory", "hit_disk"):
        fail(f"query {i}: ceil_r={ceil_r} revisit is {outcome!r}")
if len(seen) < 5:
    fail(f"workload only exercised {len(seen)} ceil(r) classes")

# Tail set, recomputed offline: threshold exceeders plus the slowest-N by
# (wall, index) descending. Must match the trace directory exactly.
wall = [doc["wall_seconds"] for doc in records]
if wall[6] < 0.05:
    fail(f"fault-delayed query 6 only took {wall[6]:.4f}s")
by_slowness = sorted(range(len(wall)), key=lambda i: (wall[i], i),
                     reverse=True)
tail = {i for i in range(len(wall)) if wall[i] >= threshold}
tail |= set(by_slowness[:slowest_n])
expected_files = {f"q{i:06d}.trace.json" for i in tail}
actual_files = set(os.listdir(os.path.join(work, "traces")))
if actual_files != expected_files:
    fail("trace dir mismatch:\n"
         f"  missing: {sorted(expected_files - actual_files)}\n"
         f"  extra:   {sorted(actual_files - expected_files)}")
if 6 not in tail:
    fail("fault-delayed query 6 is not in the tail set")
if len(tail) >= len(records):
    fail("tail sampling kept every query — nothing was sampled out")
if len(tail) > len(records) // 2:
    print(f"  warning: slow host, {len(tail)}/{len(records)} queries "
          "exceeded the tail threshold", file=sys.stderr)
for name in actual_files:
    with open(os.path.join(work, "traces", name)) as f:
        trace = json.load(f)  # every kept trace is valid JSON
    if not trace.get("traceEvents"):
        fail(f"{name}: no traceEvents")

# Report cross-check: R-7 (numpy-default linear) percentiles, counts, and
# per-class label tallies recomputed from the raw records.
def percentile_r7(values, p):
    v = sorted(values)
    h = (len(v) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (h - lo) * (v[hi] - v[lo])

report = json.load(open(os.path.join(work, "report.json")))
if report.get("schema") != "mio-qlog-report-v1":
    fail(f"report schema {report.get('schema')!r}")
if report["num_queries"] != len(records):
    fail(f"report num_queries {report['num_queries']}")
for name, p in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
    want = percentile_r7(wall, p)
    got = report["latency"][name]
    if abs(got - want) > 1e-9 * max(1.0, abs(want)):
        fail(f"latency {name}: report {got!r} vs recomputed {want!r}")
if abs(report["latency"]["max"] - max(wall)) > 1e-12:
    fail("latency max mismatch")

classes = {}
for doc in records:
    cls = classes.setdefault(doc["params"]["ceil_r"],
                             {"queries": 0, "hits": 0, "recorded": 0})
    cls["queries"] += 1
    outcome = doc["labels"]["outcome"]
    if outcome in ("hit_memory", "hit_disk"):
        cls["hits"] += 1
    elif outcome == "recorded":
        cls["recorded"] += 1
for entry in report["label_reuse"]:
    want = classes.pop(entry["ceil_r"], None)
    if want is None:
        fail(f"report invents ceil_r={entry['ceil_r']}")
    for key in ("queries", "hits", "recorded"):
        if entry[key] != want[key]:
            fail(f"ceil_r={entry['ceil_r']} {key}: "
                 f"report {entry[key]} vs qlog {want[key]}")
if classes:
    fail(f"report missing ceil_r classes {sorted(classes)}")

slowest = report["slowest"]
if len(slowest) != slowest_n:
    fail(f"report slowest has {len(slowest)} rows")
if slowest[0]["query_index"] != by_slowness[0]:
    fail("report slowest[0] is not the slowest query")
for row in slowest:
    if row["query_index"] in tail and "trace_file" not in row:
        fail(f"slowest q{row['query_index']} lost its trace pointer")

print(f"  ok: 102 records valid, tail={sorted(tail)} matches trace dir, "
      "report agrees with recomputation")
PYEOF

echo "== mio query --stats-json: one record, loadable =="
"$CLI" query --in="$WORK/data.bin" --r=3 --threads=2 \
  --stats-json="$WORK/stats.jsonl" > /dev/null
"$CLI" qlog report --in="$WORK/stats.jsonl" > /dev/null \
  || { echo "FAILED: qlog report cannot load --stats-json output" >&2; exit 1; }
python3 - "$WORK/stats.jsonl" <<'PYEOF'
import json, sys
docs = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
if len(docs) != 1 or docs[0].get("schema") != "mio-qlog-v1":
    sys.exit(f"FAILED: --stats-json wrote {len(docs)} records: {docs!r:.400}")
doc = docs[0]
if doc["workload"] != "query" or doc["params"]["r"] != 3:
    sys.exit(f"FAILED: --stats-json identity {doc['workload']!r} r={doc['params']['r']}")
for section in ("metrics", "hardware"):
    if section not in doc:
        sys.exit(f"FAILED: --stats-json record lacks {section!r}")
if "tracker" not in doc["memory"]:
    sys.exit("FAILED: --stats-json record lacks memory.tracker")
print("  ok: --stats-json record valid and loadable")
PYEOF

echo "check_qlog: all passes clean"

# The batch-execution gate (QueryBatch vs sequential differential under
# sanitizers) rides along unless explicitly skipped.
if [ "${MIO_SKIP_BATCH:-0}" != "1" ]; then
  "$SRC/scripts/check_batch.sh" "${BUILD%-qlog}-batch"
fi
