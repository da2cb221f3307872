#!/usr/bin/env bash
# Runs the JSON-emitting bench harnesses and collects the records into one
# JSONL file, suitable for scripts/compare_bench.py.
#
# Layout (one JSON document per line):
#   line 1   mio-bench-header-v1 — machine identity (host, OS, CPU count,
#            model) and the git describe of the checkout, so a committed
#            baseline (e.g. BENCH_PR4.json) records where it was measured;
#   rest     mio-qlog-v1 records, the one per-query record every
#            emitter writes; a harness's records carry its name as the
#            workload. Each harness runs MIO_BENCH_REPEATS times
#            (default 3); compare_bench.py aggregates the repeated
#            configurations by median, which is why the repeats are
#            appended rather than pre-reduced. When the mio CLI is built,
#            a canonical 30-query workload's records (workload
#            bench-canonical) are appended as well (per-query latency
#            coverage), followed by a mio-qlog-diff-v1 verdict.
#
# Usage: scripts/run_benches.sh [build-dir] [out-file]
#   build-dir  defaults to ./build (must already be built)
#   out-file   defaults to BENCH_<yyyy-mm-dd>.json in the repo root
#
# Environment:
#   MIO_BENCH_ARGS     extra flags for every harness (e.g. "--full")
#   MIO_DATASETS       --datasets value (default: bird,syn — the quick pair)
#   MIO_BENCH_REPEATS  runs per harness for the median (default 3)
set -eu

SRC=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-"$SRC/build"}
OUT=${2:-"$SRC/BENCH_$(date +%F).json"}
DATASETS=${MIO_DATASETS:-bird,syn}
EXTRA=${MIO_BENCH_ARGS:-}
REPEATS=${MIO_BENCH_REPEATS:-3}

if [ ! -d "$BUILD/bench" ]; then
  echo "error: $BUILD/bench not found — build with -DMIO_BUILD_BENCHMARKS=ON" >&2
  exit 1
fi
# Absolute: the workload step below runs the CLI from another directory.
BUILD=$(cd "$BUILD" && pwd)

TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

# Machine-identity header, written by python so every field is correctly
# JSON-escaped regardless of what the host reports.
GIT_DESC=$(git -C "$SRC" describe --always --dirty --tags 2>/dev/null || echo unknown)
python3 - "$GIT_DESC" >"$TMP" <<'PYEOF'
import json, os, platform, sys
model = ""
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
except OSError:
    pass
print(json.dumps({
    "schema": "mio-bench-header-v1",
    "git": sys.argv[1],
    "machine": {
        "host": platform.node(),
        "os": f"{platform.system()} {platform.release()}",
        "arch": platform.machine(),
        "cpus": os.cpu_count() or 0,
        "cpu_model": model,
    },
}, separators=(",", ":")))
PYEOF

run() { # run <binary> <flags...>
  local bin="$BUILD/bench/$1"; shift
  if [ ! -x "$bin" ]; then
    echo "skip: $bin (not built)" >&2
    return 0
  fi
  local i
  for i in $(seq 1 "$REPEATS"); do
    echo "== $(basename "$bin") $* (run $i/$REPEATS) =="
    # shellcheck disable=SC2086
    "$bin" --datasets="$DATASETS" --json-out="$TMP" $EXTRA "$@"
  done
}

run bench_table2_breakdown
run bench_fig9_parallel --t=1,2
# Batch-vs-sequential throughput (30-query mixed-ceil(r) workload): emits
# paired algo=sequential / algo=batch records per dataset, from which
# compare_bench.py derives and tracks the batch speedup.
run bench_batch --queries=30

# Canonical workload: per-query latency records (mio-qlog-v1) from the
# CLI's workload runner, appended alongside the harness records so
# compare_bench.py can also flag per-query regressions (keyed by
# workload/r/threads; repeated radii reduce to the median). Skipped when
# the CLI is not built. The dataset path is relative so the stamped
# `dataset` field is stable across checkouts and machines.
CLI="$BUILD/tools/mio"
if [ -x "$CLI" ]; then
  WORKDIR=$(mktemp -d)
  # shellcheck disable=SC2064
  trap "rm -f '$TMP'; rm -rf '$WORKDIR'" EXIT
  echo "== canonical workload (mio run-workload) =="
  "$CLI" generate --preset=bird2 --scale=quick --seed=11 \
    --out="$WORKDIR/bench-bird2-quick.bin" > /dev/null
  cat > "$WORKDIR/bench.spec" <<'SPEC'
name bench-canonical
defaults k=1 threads=2 labels=on
repeat 30 r=3,4.5,9
SPEC
  (cd "$WORKDIR" && "$CLI" run-workload --spec=bench.spec \
    --in=bench-bird2-quick.bin --qlog=qlog.jsonl)
  cat "$WORKDIR/qlog.jsonl" >> "$TMP"

  # Qlog regression gate: diff the fresh canonical-workload qlog against the
  # committed PR6-era baseline's canonical-workload lines (harness records
  # are qlog lines too, so select by workload). The verdict is recorded
  # (stdout + a mio-qlog-diff-v1 record in the output file) but does not fail
  # the bench run — machines and load differ; compare_bench.py remains the
  # authoritative gate. Threshold is loose for the same reason.
  BASELINE_BENCH="$SRC/BENCH_PR6.json"
  if [ -f "$BASELINE_BENCH" ]; then
    grep '"workload":"bench-canonical"' "$BASELINE_BENCH" \
      > "$WORKDIR/baseline-qlog.jsonl" || true
    if [ -s "$WORKDIR/baseline-qlog.jsonl" ]; then
      echo "== qlog diff vs $(basename "$BASELINE_BENCH") =="
      if "$CLI" qlog diff "$WORKDIR/baseline-qlog.jsonl" "$WORKDIR/qlog.jsonl" \
        --threshold="${MIO_QLOG_DIFF_THRESHOLD:-0.25}" \
        --json="$WORKDIR/qlog-diff.json"; then
        echo "qlog diff verdict: no regressions vs $(basename "$BASELINE_BENCH")"
      else
        echo "qlog diff verdict: REGRESSION(S) vs $(basename "$BASELINE_BENCH") (informational)" >&2
      fi
      # Single-line JSON — append the verdict record alongside the bench data.
      tr -d '\n' < "$WORKDIR/qlog-diff.json" >> "$TMP" && echo >> "$TMP"
    else
      echo "skip: no bench-canonical records in $BASELINE_BENCH" >&2
    fi
  else
    echo "skip: $BASELINE_BENCH not found — no qlog diff" >&2
  fi

  rm -rf "$WORKDIR"
  trap 'rm -f "$TMP"' EXIT
else
  echo "skip: $CLI (not built) — no canonical workload records" >&2
fi

if [ "$(wc -l < "$TMP")" -le 1 ]; then
  echo "error: no JSON records were produced" >&2
  exit 1
fi
mv "$TMP" "$OUT"
trap - EXIT
echo "wrote $(wc -l < "$OUT") records to $OUT"
