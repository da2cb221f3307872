#!/usr/bin/env bash
# Runs the JSON-emitting bench harnesses (the paper's tables and figures)
# and collects their records into one JSONL file. Two such files from the
# same host compare with `mio qlog diff A.json B.json`.
#
# Layout (one JSON document per line):
#   line 1   mio-bench-header-v1 — machine identity (host, OS, CPU count,
#            model) and the git describe of the checkout; `mio qlog diff`
#            skips it;
#   rest     mio-qlog-v1 records, the one per-query record every
#            emitter writes; a harness's records carry its name as the
#            workload. Each harness runs MIO_BENCH_REPEATS times
#            (default 3); `mio qlog diff` reduces each repeated
#            configuration to its median wall, which is why the repeats
#            are appended rather than pre-reduced.
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
# Batch-vs-sequential throughput (30-query mixed-ceil(r) workload): paired
# algo=sequential / algo=batch records per dataset; the harness prints the
# speedup.
run bench_batch --queries=30

if [ "$(wc -l < "$TMP")" -le 1 ]; then
  echo "error: no JSON records were produced" >&2
  exit 1
fi
mv "$TMP" "$OUT"
trap - EXIT
echo "wrote $(wc -l < "$OUT") records to $OUT"
