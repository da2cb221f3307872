#!/usr/bin/env bash
# Batch-execution gate: builds the batch differential tests and the CLI
# under ASan, UBSan and TSan and runs them (the shared class grids, the
# mid-batch ClearGridCache lifetime contract, and QueryBatch beside
# concurrent Query calls on one engine must be clean under all three;
# TSan skips the one threads=4 test, since libgomp is not
# TSan-instrumented), then diffs `mio run-workload --batch` against the
# sequential run of the same 102-query mixed-ceil(r) workload — winner
# id/score must match per query, batched records must carry the "batch"
# section, and `mio qlog report` must split the two populations. Finally
# a MIO_FAULT storm is pushed through the batch path: every fault site
# armed at 30% must end in a documented exit code, never a crash.
# Usage: scripts/check_batch.sh [build-dir-prefix]
set -eu

PREFIX=${1:-build-batch}
SRC=$(cd "$(dirname "$0")/.." && pwd)
JOBS=$(nproc 2>/dev/null || echo 2)

build() { # build <dir> <extra cmake flags...>
  local dir=$1; shift
  cmake -B "$dir" -S "$SRC" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMIO_BUILD_BENCHMARKS=OFF -DMIO_BUILD_EXAMPLES=OFF "$@" \
    > "$dir.cmake.log" 2>&1 || { cat "$dir.cmake.log"; exit 1; }
  cmake --build "$dir" --target batch_test --target mio_cli -j "$JOBS" \
    > "$dir.build.log" 2>&1 || { tail -50 "$dir.build.log"; exit 1; }
}

run_workload_pair() { # run_workload_pair <cli> <workdir> <label>
  local cli=$1 work=$2 label=$3
  "$cli" generate --preset=bird2 --scale=quick --seed=11 \
    --out="$work/data.bin" > /dev/null
  cat > "$work/mix.spec" <<'SPEC'
name check-batch-mix
sample 0.25 seed=1
defaults k=1 threads=2 labels=on
repeat 102 r=3,4.5,3.2,6.8,2.1,5.5
SPEC
  echo "  [$label] run-workload (sequential)"
  "$cli" run-workload --spec="$work/mix.spec" --in="$work/data.bin" \
    --qlog="$work/seq.jsonl"
  echo "  [$label] run-workload --batch"
  "$cli" run-workload --spec="$work/mix.spec" --in="$work/data.bin" \
    --qlog="$work/batch.jsonl" --batch
  "$cli" qlog report --in="$work/batch.jsonl" --json="$work/report.json" \
    > /dev/null
  python3 - "$work" <<'PYEOF'
import json, os, sys

work = sys.argv[1]

def fail(msg):
    sys.exit("FAILED: " + msg)

def load(name):
    recs = []
    with open(os.path.join(work, name)) as f:
        for line in f:
            line = line.strip()
            if line:
                recs.append(json.loads(line))
    return recs

seq, bat = load("seq.jsonl"), load("batch.jsonl")
if len(seq) != 102 or len(bat) != 102:
    fail(f"expected 102 records each, got {len(seq)} / {len(bat)}")

for i, (s, b) in enumerate(zip(seq, bat)):
    # The batch path must be bit-identical: same winner, same score, same
    # guardrail outcome, query by query.
    if s["winner"] != b["winner"]:
        fail(f"query {i}: winner {s['winner']} (seq) vs {b['winner']} (batch)")
    if s["outcome"]["status"] != b["outcome"]["status"] \
            or s["outcome"]["complete"] != b["outcome"]["complete"]:
        fail(f"query {i}: outcome mismatch {s['outcome']} vs {b['outcome']}")
    if "batch" in s:
        fail(f"query {i}: sequential record carries a batch section")
    if b.get("batch", {}).get("size") != 102:
        fail(f"query {i}: batch section {b.get('batch')!r}")
    # Label-reuse semantics per ceil(r) class survive batching: the class
    # either records once or hits, never misses outright.
    if b["labels"]["outcome"] == "miss":
        fail(f"query {i}: batched label outcome is a bare miss")

report = json.load(open(os.path.join(work, "report.json")))
if report.get("batched_queries") != 102:
    fail(f"report batched_queries {report.get('batched_queries')!r}")
if "latency_batched" not in report:
    fail("report lacks the latency_batched split")

print(f"  ok: 102 batched records match sequential winners; "
      f"report splits batched={report['batched_queries']}")
PYEOF
}

for san in address undefined thread; do
  dir="$PREFIX-$san"
  echo "== sanitizer: $san =="
  build "$dir" -DMIO_SANITIZE=$san
  filter='*'
  [ "$san" = thread ] && filter='-BatchTest.ParallelBatchMatchesSerialBatch'
  echo "  [$san] batch_test"
  "$dir/tests/batch_test" --gtest_brief=1 --gtest_filter="$filter" \
    || { echo "FAILED: $san batch_test"; exit 1; }
done

# The differential workload runs under ASan: a dangling class grid after
# a mid-batch cache clear (or any use-after-free in the shared posting
# arrays) dies loudly here rather than corrupting results.
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
echo "== batch vs sequential differential (ASan) =="
run_workload_pair "$PREFIX-address/tools/mio" "$WORK" asan

# Fault storm through the batch path: workload.query_delay plus every IO
# site armed. Documented exit codes (0 or 2..11) only — never a signal.
echo "== fault storm: MIO_FAULT over run-workload --batch =="
CLI="$PREFIX-address/tools/mio"
for seed in 1 2 3 4; do
  set +e
  MIO_FAULT='io.*:p=0.3;workload.query_delay:nth=7' MIO_FAULT_SEED=$seed \
    "$CLI" run-workload --spec="$WORK/mix.spec" --in="$WORK/data.bin" \
    --qlog="$WORK/storm.jsonl" --batch > /dev/null 2> "$WORK/err.txt"
  rc=$?
  set -e
  if [ "$rc" -ne 0 ] && { [ "$rc" -lt 2 ] || [ "$rc" -gt 11 ]; }; then
    echo "FAILED: storm seed=$seed exited $rc (crash?)"
    cat "$WORK/err.txt"
    exit 1
  fi
  echo "  [storm] seed=$seed rc=$rc"
done

echo "check_batch: all passes clean"

# The telemetry gate (sampler, OpenMetrics exposition, qlog SLO/diff)
# rides along unless explicitly skipped.
if [ "${MIO_SKIP_TELEMETRY:-0}" != "1" ]; then
  "$SRC/scripts/check_telemetry.sh" "${PREFIX%-batch}-telemetry"
fi
