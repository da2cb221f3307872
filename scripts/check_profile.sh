#!/usr/bin/env bash
# Profiling gate: builds the CLI with PMU support ON and OFF, smoke-runs
# `mio profile` on a synthetic dataset, and asserts for every record it
# writes (one mio-qlog-v1 record per measured run)
#  - the schema, the run identity and the timing/hardware sections are
#    present, with positive wall and phase time, in both builds;
#  - `mio qlog report --in` loads the records;
#  - MIO_PMU=off forces the timing tier (env.pmu_tier "timing", no
#    hardware event fields beyond task_clock_ns);
#  - the PMU-disabled build reports the timing tier unconditionally;
#  - on the hardware tier, cycles are counted and derived rates present;
#  - `mio explain` runs clean and prints the pruning funnel.
# On hosts without a hardware PMU (most VMs) the PMU-ON build also lands
# on the timing tier — that degradation is exactly what this gate checks.
# Finally chains scripts/check_qlog.sh (the workload / query-log gate)
# against the PMU-ON build; set MIO_SKIP_QLOG=1 to skip it.
# Usage: scripts/check_profile.sh [build-dir-prefix]
set -eu

PREFIX=${1:-build-profile}
SRC=$(cd "$(dirname "$0")/.." && pwd)
JOBS=$(nproc 2>/dev/null || echo 2)

build_cli() { # build_cli <dir> <extra cmake flags...>
  local dir=$1; shift
  cmake -B "$dir" -S "$SRC" -DCMAKE_BUILD_TYPE=Release \
    -DMIO_BUILD_BENCHMARKS=OFF -DMIO_BUILD_EXAMPLES=OFF -DMIO_BUILD_TESTS=OFF \
    "$@" > "$dir.cmake.log" 2>&1 || { cat "$dir.cmake.log"; exit 1; }
  cmake --build "$dir" --target mio_cli -j "$JOBS" \
    > "$dir.build.log" 2>&1 || { tail -50 "$dir.build.log"; exit 1; }
}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Validates every record of one profile run: schema, structure, tier
# invariants, one record per measured run; then loads them with
# `mio qlog report`.
check_report() { # check_report <cli> <file> <label> <expect-timing: 0|1> <runs>
  python3 - "$2" "$3" "$4" "$5" <<'PYEOF'
import json, sys
path, label, expect_timing, runs = (sys.argv[1], sys.argv[2],
                                    sys.argv[3] == "1", int(sys.argv[4]))
docs = [json.loads(line) for line in open(path) if line.strip()]
if len(docs) != runs:
    sys.exit(f"FAILED [{label}]: {len(docs)} records for {runs} runs")
for i, doc in enumerate(docs):
    def fail(msg):
        sys.exit(f"FAILED [{label}] record {i}: {msg}\n"
                 f"{json.dumps(doc, indent=1)[:800]}")
    if doc.get("schema") != "mio-qlog-v1":
        fail(f"schema = {doc.get('schema')!r}")
    if doc.get("query_index") != i:
        fail(f"query_index = {doc.get('query_index')!r}")
    env = doc.get("env", {})
    for key in ("git", "kernel_tier", "pmu_tier"):
        if key not in env:
            fail(f"missing key env.{key}")
    for key in ("dataset", "algo", "params", "wall_seconds", "phases",
                "hardware"):
        if key not in doc:
            fail(f"missing key {key!r}")
    if doc["wall_seconds"] <= 0:
        fail("non-positive wall_seconds")
    if doc["phases"]["total"] <= 0:
        fail("non-positive phases.total")
    tier = env["pmu_tier"]
    if expect_timing and tier != "timing":
        fail(f"expected timing tier, got {tier!r}")
    if tier == "timing":
        if "derived" in doc["hardware"]:
            fail("timing tier carries hardware-derived rates")
        for phase, counts in doc["hardware"]["phases"].items():
            extra = set(counts) - {"task_clock_ns"}
            if extra:
                fail(f"timing tier leaked hardware fields in {phase}: {extra}")
    else:
        total = doc["hardware"]["phases"].get("total", {})
        if total.get("cycles", 0) <= 0:
            fail("hardware tier reported no cycles")
        if "derived" not in doc["hardware"]:
            fail("hardware tier missing derived rates")
print(f"  [{label}] ok: {len(docs)} records, pmu_tier={tier}")
PYEOF
  "$1" qlog report --in="$2" > /dev/null \
    || { echo "FAILED [$3]: mio qlog report cannot load $2"; exit 1; }
}

echo "== build: PMU support ON =="
build_cli "$PREFIX-on"
CLI_ON="$PREFIX-on/tools/mio"

echo "== build: PMU support OFF (-DMIO_PMU_SUPPORT=OFF) =="
build_cli "$PREFIX-off" -DMIO_PMU_SUPPORT=OFF
CLI_OFF="$PREFIX-off/tools/mio"

"$CLI_ON" generate --preset=bird2 --scale=quick --seed=11 \
  --out="$WORK/data.bin" > /dev/null

echo "== mio profile: PMU-ON build, host default =="
"$CLI_ON" profile --in="$WORK/data.bin" --r=3 --warmup=1 --runs=3 \
  --out="$WORK/on.jsonl" > /dev/null
check_report "$CLI_ON" "$WORK/on.jsonl" "pmu-on/default" 0 3

echo "== mio profile: PMU-ON build, MIO_PMU=off fallback =="
MIO_PMU=off "$CLI_ON" profile --in="$WORK/data.bin" --r=3 --warmup=0 \
  --runs=2 --out="$WORK/forced.jsonl" > /dev/null
check_report "$CLI_ON" "$WORK/forced.jsonl" "pmu-on/MIO_PMU=off" 1 2

echo "== mio profile: PMU-OFF build =="
"$CLI_OFF" profile --in="$WORK/data.bin" --r=3 --warmup=0 --runs=2 \
  --out="$WORK/off.jsonl" > /dev/null
check_report "$CLI_OFF" "$WORK/off.jsonl" "pmu-off-build" 1 2

echo "== mio explain smoke =="
"$CLI_ON" explain --in="$WORK/data.bin" --r=3 > "$WORK/explain.txt"
grep -q "pruning funnel" "$WORK/explain.txt" \
  || { echo "FAILED: explain output missing funnel"; cat "$WORK/explain.txt"; exit 1; }
grep -q "ub-survivors" "$WORK/explain.txt" \
  || { echo "FAILED: explain output missing ub-survivors"; exit 1; }

echo "check_profile: all passes clean"

# The qlog gate reuses the PMU-ON build's CLI; MIO_SKIP_QLOG=1 skips it
# (e.g. when iterating on the profile checks alone).
if [ "${MIO_SKIP_QLOG:-0}" != "1" ]; then
  "$SRC/scripts/check_qlog.sh" "$PREFIX-on"
fi
