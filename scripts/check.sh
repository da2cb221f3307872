#!/usr/bin/env bash
# Lists are word-split on purpose; stages are called as "stage_$s".
# shellcheck disable=SC2086,SC2317
# The gate: proves BIGrid's answers bit-identical across kernel tiers, the
# batch and server paths and the sanitizer builds, and that every
# observability artefact is valid. Builds each tree once under the prefix
# and runs the declared stages in order.
#
# Usage: scripts/check.sh [--prefix=DIR] [STAGE...]
#   --prefix=DIR  build trees land in DIR/<tree> (default build-check)
#   STAGE...      run only these stages, in the declared order; with none,
#                 every stage runs. An unknown name exits 2.
#
# Trees (configured and built only when a selected stage needs them;
# `cmake --build` runs on each every time, so no binary is ever stale):
#   plain    Release with -DMIO_WERROR=ON, test targets + mio_cli; a
#            `warning:` line in its build log fails the gate
#   asan     RelWithDebInfo, -DMIO_SANITIZE=address
#   ubsan    RelWithDebInfo, -DMIO_SANITIZE=undefined (CMake adds the
#            halting float-cast-overflow flags)
#   tsan     RelWithDebInfo, -DMIO_SANITIZE=thread
# A sanitizer tree runs each test binary once, whichever stages list it.
#
# stage       trees             assertions
# kernels     asan ubsan plain  kernel, bitset, pipeline and verification
#                               tests (every query path: serial, both LB
#                               and UB strategies, labels, batch, temporal)
#                               clean under ASan and UBSan; the same tests
#                               pass under MIO_KERNEL=scalar, sse2, avx2
# robustness  asan ubsan plain  guardrail, IO, spec, protocol, qlog and
#                               fuzz suites clean under ASan and UBSan; a
#                               fault storm over query, convert and stats
#                               (load arm: one failed dataset read call;
#                               post-load arm: io.label.* and
#                               io.dataset.write at p=0.3) exits 0 or
#                               2..11 with a message, and some post-load
#                               run injects a fault; out-of-domain `mio
#                               query` input exits 2 with a message
# profile     plain             `mio profile` writes one valid record per
#                               run (schema, identity, positive wall and
#                               phase time, no hardware section, env of
#                               git and kernel_tier only); `qlog report`
#                               loads them; `explain` prints the funnel
# qlog        plain             102-query ceil(r) mix: valid records, label
#                               outcomes per class, tail traces = the tail
#                               set recomputed offline, `qlog report` = an
#                               R-7 recomputation; `query --stats-json`
#                               writes one loadable record
# batch       asan ubsan tsan   batch_test clean under all three (TSan
#                               skips the threads=4 test); `run-workload
#                               --batch` matches the sequential run query
#                               by query (ASan); a fault storm through the
#                               batch path (load and post-load arms) exits
#                               0 or 2..11, and some post-load run injects
#                               a label fault
# telemetry   plain             OpenMetrics scrapes valid mid-run, final
#                               and after SIGTERM, counters monotone; `qlog
#                               diff` passes an A/A rerun and flags a
#                               +50 ms/query candidate; `qlog report --slo`
#                               passes and misses; sampler overhead A/B
# serve       plain asan tsan   --connect = in-process = cached =
#                               --no-coalesce; replay with 0 transport
#                               errors; armed enqueue fault -> exit 12 with
#                               a retry hint; empty qlogs exit 2; the
#                               result-table, coalescing, cache and drain
#                               tests of server_test clean under TSan;
#                               8-client soak, server.* storm and SIGTERM
#                               mid-burst under plain, ASan and TSan, no
#                               reports
# obs_serve   plain             responses vs qlog two-way differential over
#                               a clean soak and a refusal storm + drain;
#                               `mio top`; `qlog report` server split; tail
#                               traces by request id; server histograms in
#                               the scrape; observability overhead A/B
# lint        -                 `bash -n` over scripts/*.sh, shellcheck when
#                               installed, python3 compile of scripts/*.py
set -eu

STAGES=(kernels robustness profile qlog batch telemetry serve obs_serve lint)
SRC=$(cd "$(dirname "$0")/.." && pwd)
JOBS=$(nproc 2> /dev/null || echo 2)
AA_THRESHOLD=0.25 # A/A rerun and fault-slowed diff (noisy host)
AB_THRESHOLD=0.5  # both observability overhead A/Bs

KERNEL_TESTS="kernels_test geo_test kdtree_test bigrid_test baseline_test \
  mio_engine_test fuzz_differential_test parallel_test obs_test \
  bounds_test batch_test grid_reuse_test ewah_test plain_bitset_test \
  planar_test temporal_test tie_order_test properties_test"
ROBUST_TESTS="robustness_test io_test importers_test mio_engine_test \
  workload_test server_test qlog_test telemetry_test obs_serve_test"
SERVE_TSAN_FILTER="ResultTable.*:ServeTest.*Coalesc*:ServeTest.*Cache*:\
ServeTest.*Concurrent*:ServeTest.*Drain*"

PREFIX=build-check
SELECTED=" "
for arg in "$@"; do
  case $arg in
    --prefix=*) PREFIX=${arg#--prefix=} ;;
    *)
      case " ${STAGES[*]} " in
        *" $arg "*) SELECTED+="$arg " ;;
        *)
          echo "check.sh: unknown stage '$arg'; stages: ${STAGES[*]}" >&2
          exit 2
          ;;
      esac
      ;;
  esac
done
RUN=()
for s in "${STAGES[@]}"; do
  if [ "$SELECTED" = " " ] || [[ $SELECTED == *" $s "* ]]; then RUN+=("$s"); fi
done
mkdir -p "$PREFIX"
PREFIX=$(cd "$PREFIX" && pwd)

fail() {
  echo "FAILED: $*" >&2
  exit 1
}

# --- Trees -------------------------------------------------------------------

declare -A TARGETS BUILT RAN
need() { # need TREE TARGET... — a selected stage runs these from TREE
  local tree=$1
  shift
  TARGETS[$tree]="${TARGETS[$tree]:-} $*"
}
for s in "${RUN[@]}"; do
  case $s in
    kernels) for t in asan ubsan plain; do need $t $KERNEL_TESTS; done ;;
    robustness)
      need asan $ROBUST_TESTS
      need ubsan $ROBUST_TESTS
      need plain mio_cli
      ;;
    profile | qlog | telemetry | obs_serve) need plain mio_cli ;;
    batch)
      need asan batch_test mio_cli
      need ubsan batch_test
      need tsan batch_test
      ;;
    serve)
      for t in plain asan tsan; do need $t mio_cli; done
      need tsan server_test
      ;;
  esac
done

# build_tree TREE — configures and builds TREE on its first use in this
# run; later uses are free. The binaries are under $PREFIX/TREE.
build_tree() {
  local name=$1 dir=$PREFIX/$1 flags t
  [ -n "${BUILT[$name]:-}" ] && return 0
  case $name in
    plain) flags="-DCMAKE_BUILD_TYPE=Release -DMIO_WERROR=ON" ;;
    asan) flags="-DCMAKE_BUILD_TYPE=RelWithDebInfo -DMIO_SANITIZE=address" ;;
    ubsan) flags="-DCMAKE_BUILD_TYPE=RelWithDebInfo -DMIO_SANITIZE=undefined" ;;
    tsan) flags="-DCMAKE_BUILD_TYPE=RelWithDebInfo -DMIO_SANITIZE=thread" ;;
  esac
  echo "== build: $name ($dir) =="
  cmake -B "$dir" -S "$SRC" -DMIO_BUILD_BENCHMARKS=OFF \
    -DMIO_BUILD_EXAMPLES=OFF $flags > "$dir.cmake.log" 2>&1 \
    || { cat "$dir.cmake.log"; exit 1; }
  local args=()
  for t in $(printf '%s\n' ${TARGETS[$name]} | sort -u); do
    args+=(--target "$t")
  done
  cmake --build "$dir" "${args[@]}" -j "$JOBS" > "$dir.build.log" 2>&1 \
    || { tail -50 "$dir.build.log"; exit 1; }
  if [ "$name" = plain ] && grep "warning:" "$dir.build.log"; then
    fail "build: plain printed warnings ($dir.build.log)"
  fi
  BUILT[$name]=1
}

# run_tests TREE LABEL FILTER TEST... — runs each test binary of TREE;
# a binary already run under LABEL in this run is not run again.
run_tests() {
  local name=$1 label=$2 filter=$3 t
  shift 3
  build_tree "$name"
  for t in "$@"; do
    [ -n "${RAN[$label/$t]:-}" ] && continue
    RAN[$label/$t]=1
    echo "  [$label] $t"
    "$PREFIX/$name/tests/$t" --gtest_brief=1 --gtest_filter="$filter" \
      || fail "$label $t"
  done
}

# --- Shared helpers ----------------------------------------------------------

WORK=$(mktemp -d)
SERVER_PID=
cleanup() {
  if [ -n "$SERVER_PID" ]; then kill -9 "$SERVER_PID" 2> /dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT
DATA=$WORK/data.bin

dataset() { # dataset CLI — the bird2 quick seed-11 dataset, made once
  [ -s "$DATA" ] || "$1" generate --preset=bird2 --scale=quick --seed=11 \
    --out="$DATA" > /dev/null
}

# start_server CLI SOCKET FAULTSPEC [serve args...] — sets SERVER_PID and
# waits for the socket to appear.
start_server() {
  local cli=$1 sock=$2 fault=$3 tries=0
  shift 3
  rm -f "$sock"
  if [ -n "$fault" ]; then
    MIO_FAULT="$fault" MIO_FAULT_SEED=13 \
      "$cli" serve --in="$DATA" --socket="$sock" "$@" > "$sock.log" 2>&1 &
  else
    "$cli" serve --in="$DATA" --socket="$sock" "$@" > "$sock.log" 2>&1 &
  fi
  SERVER_PID=$!
  while [ ! -S "$sock" ]; do
    sleep 0.05
    tries=$((tries + 1))
    if [ "$tries" -gt 200 ] || ! kill -0 "$SERVER_PID" 2> /dev/null; then
      cat "$sock.log" >&2
      fail "server never bound $sock"
    fi
  done
}

# reap_server SOCKET "RC..." — waits for the signalled server; its exit
# code must be one of the allowed ones and the drain must have removed
# the socket.
reap_server() {
  local sock=$1 allowed=$2 rc ok=0 a
  set +e
  wait "$SERVER_PID"
  rc=$?
  set -e
  SERVER_PID=
  for a in $allowed; do [ "$rc" -eq "$a" ] && ok=1; done
  if [ "$ok" -ne 1 ]; then
    cat "$sock.log" >&2
    fail "server exit rc=$rc (want one of: $allowed)"
  fi
  [ -S "$sock" ] && fail "drained server left its socket behind: $sock"
  return 0
}

stop_server() { # stop_server SOCKET "RC..." — SIGTERM, then reap_server
  kill -TERM "$SERVER_PID" 2> /dev/null || true
  reap_server "$@"
}

# no_sanitizer_reports FILE... — a single report anywhere fails the gate.
no_sanitizer_reports() {
  if grep -l -e 'ERROR: AddressSanitizer' -e 'WARNING: ThreadSanitizer' \
    -e 'ERROR: LeakSanitizer' "$@" 2> /dev/null; then
    fail "sanitizer report (files above)"
  fi
}

# expect_rc WANT CMD... — runs CMD (stdout to $W/out.txt, stderr to
# $W/err.txt) and requires exit code WANT.
expect_rc() {
  local want=$1 rc
  shift
  set +e
  "$@" > "$W/out.txt" 2> "$W/err.txt"
  rc=$?
  set -e
  if [ "$rc" -ne "$want" ]; then
    cat "$W/out.txt" "$W/err.txt" >&2
    fail "'$*' exited $rc (want $want)"
  fi
}

# storm_rc RC LABEL — a fault-storm exit code is 0 or a documented status
# (2..11, docs/ROBUSTNESS.md) with a message in $W/err.txt, never a signal.
storm_rc() {
  local rc=$1 label=$2
  if [ "$rc" -ne 0 ] && { [ "$rc" -lt 2 ] || [ "$rc" -gt 11 ]; }; then
    cat "$W/err.txt" >&2
    fail "storm $label exited $rc (crash?)"
  fi
  if [ "$rc" -ne 0 ] && [ ! -s "$W/err.txt" ]; then
    fail "storm $label failed silently (rc=$rc)"
  fi
  echo "  [storm] rc=$rc  $label"
}

# load_reads CLI — a lower bound on the read calls that load $DATA: the
# binary loader reads three header fields, then at least two per object,
# and io.dataset.read fires once per read call. A storm that arms that
# site at p=0.3 never gets past the load, so each storm has a load arm
# (one failed read call, K in 1..load_reads) and a post-load arm (label
# and write sites at p=0.3, the read site unarmed).
load_reads() {
  local n
  n=$("$1" stats --in="$DATA" | sed -n 's/^n=\([0-9]*\) .*/\1/p')
  [ -n "$n" ] || fail "'mio stats' printed no object count"
  echo $((3 + 2 * n))
}

# injected_in FILE — the faults.injected counter of a mio-qlog-v1 record
# (--stats-json) or an OpenMetrics scrape (--metrics-out); 0 when absent.
injected_in() {
  python3 - "$1" << 'PYEOF'
import json, os, re, sys

path = sys.argv[1]
text = open(path).read() if os.path.exists(path) else ""
m = re.search(r"^mio_faults_injected_total (\d+)", text, re.M)
if m:
    print(m.group(1))
elif text.strip():
    record = json.loads(text.splitlines()[0])
    print(record.get("metrics", {}).get("counters", {})
          .get("faults.injected", 0))
else:
    print(0)
PYEOF
}

# --- Stages ------------------------------------------------------------------

stage_kernels() {
  local t tier
  for t in asan ubsan; do run_tests $t $t '*' $KERNEL_TESTS; done
  for tier in scalar sse2 avx2; do
    MIO_KERNEL=$tier run_tests plain "MIO_KERNEL=$tier" '*' $KERNEL_TESTS
  done
}

stage_robustness() {
  local CLI=$PREFIX/plain/tools/mio t seed cmd rc args reads k shown=0
  for t in asan ubsan; do run_tests $t $t '*' $ROBUST_TESTS; done
  build_tree plain
  dataset "$CLI"
  reads=$(load_reads "$CLI")
  echo "== fault storm, load arm: MIO_FAULT='io.dataset.read:nth=K' =="
  for seed in 1 2 3 4 5 6 7 8; do
    k=$((1 + (seed - 1) * (reads - 1) / 7))
    for cmd in "query --in=$DATA --r=2 --labels=$W/labels" \
      "convert --in=$DATA --out=$W/copy.bin" "stats --in=$DATA"; do
      set +e
      MIO_FAULT="io.dataset.read:nth=$k" "$CLI" $cmd \
        > /dev/null 2> "$W/err.txt"
      rc=$?
      set -e
      storm_rc "$rc" "nth=$k ${cmd%% *}"
    done
  done
  # Past the load: the label sites and dataset writes at 30% per hit, a
  # different stream per round. A label fault leaves the query's exit
  # code alone (persisting labels is best-effort), so the query's record
  # carries the faults.injected count.
  echo "== fault storm, post-load arm: io.label.* and io.dataset.write =="
  for seed in 1 2 3 4 5 6 7 8; do
    for cmd in "query --in=$DATA --r=2 --labels=$W/labels \
      --stats-json=$W/storm.json" "convert --in=$DATA --out=$W/copy.bin" \
      "stats --in=$DATA"; do
      rm -f "$W/storm.json"
      set +e
      MIO_FAULT='io.label.*:p=0.3;io.dataset.write:p=0.3' \
        MIO_FAULT_SEED=$seed "$CLI" $cmd > /dev/null 2> "$W/err.txt"
      rc=$?
      set -e
      storm_rc "$rc" "seed=$seed ${cmd%% *}"
      if [ "$rc" -ne 0 ] || [ "$(injected_in "$W/storm.json")" -gt 0 ]; then
        shown=$((shown + 1))
      fi
    done
  done
  [ "$shown" -gt 0 ] || fail "no post-load storm run injected a fault"
  echo "  [storm] $shown of 24 post-load runs injected a fault"
  # Out-of-domain input exits 2 with a message: never runs (k = -1 once
  # verified every object), crashes (--delta on untimestamped data) or
  # hangs (SG at r = 1e-300). `mio serve`'s flags: cli_test.
  echo "== out-of-domain CLI input =="
  for args in "--k=-1" "--k=abc" "--threads=99999999999" "--delta=5" \
    "--algo=sg --r=1e-300" "--algo=nl --r=-1"; do
    expect_rc 2 timeout 60 "$CLI" query --in="$DATA" --r=2 $args
    [ -s "$W/err.txt" ] || fail "'mio query $args' printed no message"
    echo "  [domain] rc=2  $args"
  done
}

stage_profile() {
  local CLI=$PREFIX/plain/tools/mio
  build_tree plain
  dataset "$CLI"
  echo "== mio profile =="
  "$CLI" profile --in="$DATA" --r=3 --warmup=1 --runs=3 \
    --out="$W/profile.jsonl" > /dev/null
  # One valid record per measured run. Per-phase time is the `phases`
  # section: no record carries a hardware section or a PMU tier.
  python3 - "$W/profile.jsonl" 3 << 'PYEOF'
import json, sys
path, runs = sys.argv[1], int(sys.argv[2])
docs = [json.loads(line) for line in open(path) if line.strip()]
if len(docs) != runs:
    sys.exit(f"FAILED [profile]: {len(docs)} records for {runs} runs")
for i, doc in enumerate(docs):
    def fail(msg):
        sys.exit(f"FAILED [profile] record {i}: {msg}\n"
                 f"{json.dumps(doc, indent=1)[:800]}")
    if doc.get("schema") != "mio-qlog-v1":
        fail(f"schema = {doc.get('schema')!r}")
    if doc.get("query_index") != i:
        fail(f"query_index = {doc.get('query_index')!r}")
    for key in ("dataset", "algo", "params", "wall_seconds", "phases", "env"):
        if key not in doc:
            fail(f"missing key {key!r}")
    if doc["wall_seconds"] <= 0:
        fail("non-positive wall_seconds")
    if doc["phases"]["total"] <= 0:
        fail("non-positive phases.total")
    if "hardware" in doc:
        fail("record carries a hardware section")
    if sorted(doc["env"]) != ["git", "kernel_tier"]:
        fail(f"env holds {sorted(doc['env'])}, want git and kernel_tier")
print(f"  [profile] ok: {len(docs)} records")
PYEOF
  "$CLI" qlog report --in="$W/profile.jsonl" > /dev/null \
    || fail "[profile] mio qlog report cannot load $W/profile.jsonl"
  echo "== mio explain smoke =="
  "$CLI" explain --in="$DATA" --r=3 > "$W/explain.txt"
  grep -q "pruning funnel" "$W/explain.txt" \
    || { cat "$W/explain.txt"; fail "explain output missing funnel"; }
  grep -q "ub-survivors" "$W/explain.txt" \
    || fail "explain output missing ub-survivors"
}

stage_qlog() {
  local CLI=$PREFIX/plain/tools/mio threshold_ms=40 slowest_n=5
  build_tree plain
  dataset "$CLI"
  # 102 queries cycling six radii across five ceil(r) classes (3, 5, 4,
  # 7, 6; 2.1 -> 3 again): label reuse on every revisit. The sample keeps
  # queries far below the tail threshold, so the tail set stays a strict
  # subset and slowest-N churn exercises eviction.
  cat > "$W/mix.spec" << 'SPEC'
name check-qlog-mix
sample 0.25 seed=1
defaults k=1 threads=2 labels=on
repeat 102 r=3,4.5,3.2,6.8,2.1,5.5
SPEC
  # nth=7 forces a 50 ms busy-wait into query index 6: it must exceed
  # the threshold however fast the host is.
  echo "== mio run-workload: 102-query ceil(r) mix =="
  MIO_FAULT="workload.query_delay:nth=7" \
    "$CLI" run-workload --spec="$W/mix.spec" --in="$DATA" \
    --qlog="$W/run.jsonl" --trace-dir="$W/traces" \
    --tail-threshold-ms=$threshold_ms --tail-slowest=$slowest_n
  echo "== mio qlog report --json =="
  "$CLI" qlog report --in="$W/run.jsonl" --trace-dir="$W/traces" \
    --slowest=$slowest_n --json="$W/report.json" > /dev/null
  "$CLI" qlog report --in="$W/run.jsonl" --trace-dir="$W/traces" \
    > /dev/null
  echo "== validate qlog, tail set, report =="
  python3 - "$W" "$threshold_ms" "$slowest_n" << 'PYEOF'
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
    "env": {"git": STRING, "kernel_tier": STRING},
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
  "$CLI" query --in="$DATA" --r=3 --threads=2 \
    --stats-json="$W/stats.jsonl" > /dev/null
  "$CLI" qlog report --in="$W/stats.jsonl" > /dev/null \
    || fail "qlog report cannot load --stats-json output"
  python3 - "$W/stats.jsonl" << 'PYEOF'
import json, sys
docs = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
if len(docs) != 1 or docs[0].get("schema") != "mio-qlog-v1":
    sys.exit(f"FAILED: --stats-json wrote {len(docs)} records: {docs!r:.400}")
doc = docs[0]
if doc["workload"] != "query" or doc["params"]["r"] != 3:
    sys.exit(f"FAILED: --stats-json identity {doc['workload']!r} r={doc['params']['r']}")
if "metrics" not in doc:
    sys.exit("FAILED: --stats-json record lacks 'metrics'")
if "tracker" not in doc["memory"]:
    sys.exit("FAILED: --stats-json record lacks memory.tracker")
print("  ok: --stats-json record valid and loadable")
PYEOF
}

stage_batch() {
  local CLI=$PREFIX/asan/tools/mio t seed rc
  for t in asan ubsan; do run_tests $t $t '*' batch_test; done
  # libgomp is not TSan-instrumented: skip the one threads=4 test.
  run_tests tsan tsan '-BatchTest.ParallelBatchMatchesSerialBatch' batch_test
  # Under ASan, a dangling class grid after a mid-batch cache clear (or
  # any use-after-free in the shared posting arrays) dies loudly.
  dataset "$CLI"
  cat > "$W/mix.spec" << 'SPEC'
name check-batch-mix
sample 0.25 seed=1
defaults k=1 threads=2 labels=on
repeat 102 r=3,4.5,3.2,6.8,2.1,5.5
SPEC
  echo "== batch vs sequential differential (ASan) =="
  "$CLI" run-workload --spec="$W/mix.spec" --in="$DATA" --qlog="$W/seq.jsonl"
  "$CLI" run-workload --spec="$W/mix.spec" --in="$DATA" \
    --qlog="$W/batch.jsonl" --batch
  "$CLI" qlog report --in="$W/batch.jsonl" --json="$W/report.json" \
    > /dev/null
  python3 - "$W" << 'PYEOF'
import json, os, sys

work = sys.argv[1]

def fail(msg):
    sys.exit("FAILED: " + msg)

def load(name):
    with open(os.path.join(work, name)) as f:
        return [json.loads(line) for line in f if line.strip()]

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
    # Label reuse per ceil(r) class survives batching: the class either
    # records once or hits, never misses outright.
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
  local reads k shown=0
  reads=$(load_reads "$CLI")
  echo "== fault storm, load arm: run-workload --batch, one failed read =="
  for seed in 1 2 3 4; do
    k=$((1 + (seed - 1) * (reads - 1) / 3))
    set +e
    MIO_FAULT="io.dataset.read:nth=$k" \
      "$CLI" run-workload --spec="$W/mix.spec" --in="$DATA" \
      --qlog="$W/storm.jsonl" --batch > /dev/null 2> "$W/err.txt"
    rc=$?
    set -e
    storm_rc "$rc" "nth=$k"
  done
  # Past the load, with a label store so the label sites are reached.
  # workload.query_delay:nth=7 fires at most once, so a faults.injected
  # count of two or more includes a label or write fault.
  echo "== fault storm, post-load arm: run-workload --batch, label sites =="
  for seed in 1 2 3 4; do
    rm -f "$W/storm.prom"
    set +e
    MIO_FAULT='io.label.*:p=0.3;io.dataset.write:p=0.3;workload.query_delay:nth=7' \
      MIO_FAULT_SEED=$seed "$CLI" run-workload --spec="$W/mix.spec" \
      --in="$DATA" --qlog="$W/storm.jsonl" --labels="$W/storm-labels" \
      --metrics-out="$W/storm.prom" --batch > /dev/null 2> "$W/err.txt"
    rc=$?
    set -e
    storm_rc "$rc" "seed=$seed"
    if [ "$rc" -ne 0 ] || [ "$(injected_in "$W/storm.prom")" -ge 2 ]; then
      shown=$((shown + 1))
    fi
  done
  [ "$shown" -gt 0 ] || fail "no post-load batch storm run injected a fault"
  echo "  [storm] $shown of 4 post-load batch runs injected a fault"
}

stage_telemetry() {
  local CLI=$PREFIX/plain/tools/mio watcher pid rc tries
  local VALIDATE=$SRC/scripts/validate_openmetrics.py
  build_tree plain
  dataset "$CLI"
  cat > "$W/canonical.spec" << 'SPEC'
name bench-canonical
defaults k=1 threads=2 labels=on
slo latency_ms=10000 objective=0.95
repeat 30 r=3,4.5,9
SPEC

  # 1. The fault site stretches every query by 50 ms, so the 100 ms
  # sampler takes several mid-run scrapes; the watcher grabs one early
  # copy (the atomic rename means a copy is never a torn write).
  echo "== scrape validity + counter monotonicity =="
  (
    tries=0
    while [ ! -s "$W/metrics.prom" ]; do
      sleep 0.02
      tries=$((tries + 1))
      [ "$tries" -gt 1500 ] && exit 1 # the parent reports the miss
    done
    sleep 0.3 # let a few queries land so the early scrape has real counts
    cp "$W/metrics.prom" "$W/scrape1.prom"
  ) &
  watcher=$!
  MIO_FAULT='workload.query_delay:always' \
    "$CLI" run-workload --spec="$W/canonical.spec" --in="$DATA" \
    --qlog="$W/mono.jsonl" --metrics-out="$W/metrics.prom" \
    --telemetry-interval-ms=100 > /dev/null
  wait "$watcher" || true
  [ -s "$W/scrape1.prom" ] || fail "watcher never captured a mid-run scrape"
  python3 "$VALIDATE" "$W/scrape1.prom" "$W/metrics.prom"
  [ -e "$W/metrics.prom.tmp" ] && fail "leftover temp file metrics.prom.tmp"
  grep -q '^mio_query_executed_total 30$' "$W/metrics.prom" \
    || fail "final scrape does not count the 30 workload queries"

  # 2. SIGTERM mid-workload still leaves a valid scrape.
  echo "== SIGTERM mid-workload =="
  MIO_FAULT='workload.query_delay:always' \
    "$CLI" run-workload --spec="$W/canonical.spec" --in="$DATA" \
    --qlog="$W/term.jsonl" --metrics-out="$W/term.prom" \
    --telemetry-interval-ms=50 > /dev/null 2>&1 &
  pid=$!
  tries=0
  while [ ! -s "$W/term.prom" ]; do
    sleep 0.02
    tries=$((tries + 1))
    if [ "$tries" -gt 1500 ] || ! kill -0 "$pid" 2> /dev/null; then
      fail "no scrape appeared before the workload ended"
    fi
  done
  sleep 0.4 # mid-workload: ~8 of the 30 delayed queries done
  kill -TERM "$pid"
  set +e
  wait "$pid"
  rc=$?
  set -e
  [ "$rc" -eq 0 ] && fail "workload survived SIGTERM (rc=0): signal too late"
  echo "  terminated rc=$rc; validating the surviving scrape"
  python3 "$VALIDATE" "$W/term.prom"

  # 3. qlog diff: an A/A rerun passes, a +50 ms/query candidate is flagged.
  echo "== qlog diff: A/A baseline =="
  "$CLI" run-workload --spec="$W/canonical.spec" --in="$DATA" \
    --qlog="$W/base.jsonl" > /dev/null
  "$CLI" run-workload --spec="$W/canonical.spec" --in="$DATA" \
    --qlog="$W/aa.jsonl" > /dev/null
  "$CLI" qlog diff "$W/base.jsonl" "$W/aa.jsonl" --threshold=$AA_THRESHOLD \
    || fail "A/A rerun of the same workload flagged as a regression"
  echo "== qlog diff: fault-slowed candidate =="
  MIO_FAULT='workload.query_delay:always' \
    "$CLI" run-workload --spec="$W/canonical.spec" --in="$DATA" \
    --qlog="$W/slow.jsonl" > /dev/null
  expect_rc 1 "$CLI" qlog diff "$W/base.jsonl" "$W/slow.jsonl" \
    --threshold=$AA_THRESHOLD --json="$W/diff.json"
  python3 - "$W/diff.json" << 'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "mio-qlog-diff-v1", doc.get("schema")
assert doc["regressions"] > 0
flagged = {e["metric"] for e in doc["entries"] if e["regression"]}
if not flagged & {"latency.p50", "latency.p95", "latency.p99"}:
    sys.exit(f"FAILED: no latency percentile flagged, only {sorted(flagged)}")
print(f"  flagged: {sorted(flagged)}")
PYEOF

  # 4. SLO gate: the spec's 10 s objective is unmissable, a 1 ns one is not.
  echo "== qlog report --slo =="
  "$CLI" qlog report --in="$W/base.jsonl" --slo="$W/canonical.spec" \
    | grep -q '\[ok\]' || fail "generous SLO not reported ok"
  sed 's/latency_ms=10000 objective=0.95/latency_ms=0.000001 objective=0.999/' \
    "$W/canonical.spec" > "$W/strict.spec"
  expect_rc 1 "$CLI" qlog report --in="$W/base.jsonl" --slo="$W/strict.spec"
  grep -q 'MISSED' "$W/out.txt" || fail "impossible SLO not reported missed"

  # 5. Sampler overhead within noise.
  echo "== sampler overhead A/B (threshold $AB_THRESHOLD) =="
  "$CLI" run-workload --spec="$W/canonical.spec" --in="$DATA" \
    --qlog="$W/sampled.jsonl" --metrics-out="$W/ab.prom" \
    --telemetry-interval-ms=100 > /dev/null
  "$CLI" qlog diff "$W/base.jsonl" "$W/sampled.jsonl" \
    --threshold=$AB_THRESHOLD || fail "sampler overhead A/B"
}

# client_burst CLI SOCKET N LOG — N queries; every exit code must be a
# distinct, expected status: 0 ok, 3 transport (raced a fault or the
# drain), 12 overloaded. Anything else fails the gate.
client_burst() {
  local cli=$1 sock=$2 n=$3 log=$4 rc i
  for i in $(seq "$n"); do
    set +e
    "$cli" query --connect="$sock" --r=$((3 + i % 3)) --k=2 \
      --attempts=4 --backoff-ms=5 >> "$log" 2>&1
    rc=$?
    set -e
    case "$rc" in
      0 | 3 | 12) ;;
      *)
        echo "FAILED: client rc=$rc (want 0, 3, or 12)" >&2
        return 1
        ;;
    esac
  done
}

# soak CLI LABEL — 8 concurrent clients + clean drain, then a server.*
# fault storm with SIGTERM landing mid-burst; no sanitizer report.
soak() {
  local cli=$1 label=$2
  local sock="$W/$label.sock" pids=() pid c fails=0
  echo "== $label: concurrent soak (8 clients) + clean drain =="
  start_server "$cli" "$sock" "" --workers=2 --max-queue=8 \
    --metrics-out="$W/$label.prom"
  : > "$W/$label.clients.log"
  for c in 1 2 3 4 5 6 7 8; do
    client_burst "$cli" "$sock" 4 "$W/$label.clients.log" &
    pids+=("$!")
  done
  for pid in "${pids[@]}"; do wait "$pid" || fails=$((fails + 1)); done
  [ "$fails" -eq 0 ] || fail "$fails soak client(s) saw an unexpected status"
  stop_server "$sock" "0"
  python3 "$SRC/scripts/validate_openmetrics.py" "$W/$label.prom"

  echo "== $label: server.* fault storm + SIGTERM mid-burst =="
  start_server "$cli" "$sock" 'server.*:p=0.25' --workers=2 --max-queue=4
  pids=()
  for c in 1 2 3 4 5 6 7 8; do
    client_burst "$cli" "$sock" 4 "$W/$label.clients.log" &
    pids+=("$!")
  done
  sleep 0.3 # let the burst get in flight before the signal lands
  kill -TERM "$SERVER_PID" 2> /dev/null || true
  for pid in "${pids[@]}"; do wait "$pid" || fails=$((fails + 1)); done
  [ "$fails" -eq 0 ] || fail "$fails storm client(s) saw an unexpected status"
  reap_server "$sock" "0 9"
  no_sanitizer_reports "$sock.log" "$W/$label.clients.log"
}

stage_serve() {
  local CLI=$PREFIX/plain/tools/mio sock=$W/mio.sock f extra t
  for t in plain asan tsan; do build_tree $t; done
  dataset "$CLI"
  cat > "$W/replay.spec" << 'SPEC'
name serve-replay
defaults k=2 threads=1 labels=off
repeat 12 r=3,4.5,6
SPEC

  # 1. Differential: direct vs --connect vs cached vs --no-coalesce.
  echo "== differential: direct vs --connect vs cached =="
  start_server "$CLI" "$sock" "" --cache=8
  "$CLI" query --in="$DATA" --r=4.5 --k=3 | grep '^object' > "$W/direct.txt"
  for f in 1 2 3; do # 2 repeats 1 (cached), 3 forces a re-execution
    extra=
    [ "$f" -ne 3 ] || extra=--no-coalesce
    "$CLI" query --connect="$sock" --r=4.5 --k=3 $extra > "$W/conn$f.out"
    grep '^object' "$W/conn$f.out" | diff "$W/direct.txt" - \
      || fail "--connect answer $f differs from in-process"
  done
  grep -q 'served from the result cache' "$W/conn2.out" \
    || fail "identical repeat not served from the cache"
  grep -q 'cache' "$W/conn3.out" && fail "--no-coalesce hit the cache"

  # 2. Workload replay over the socket.
  echo "== run-workload --connect =="
  "$CLI" run-workload --spec="$W/replay.spec" --connect="$sock" \
    > "$W/replay.out"
  grep -q '12 queries' "$W/replay.out" \
    || { cat "$W/replay.out"; fail "replay summary missing"; }
  grep -q '0 transport errors' "$W/replay.out" \
    || { cat "$W/replay.out"; fail "replay hit transport errors"; }
  stop_server "$sock" "0"

  # 3. Overload refusal is distinct and hinted.
  echo "== overload: armed server.enqueue -> exit 12 + retry-after =="
  start_server "$CLI" "$sock" 'server.enqueue:always'
  expect_rc 12 "$CLI" query --connect="$sock" --r=4.5 --attempts=2 \
    --backoff-ms=5
  grep -q 'retry after' "$W/err.txt" \
    || fail "refusal carried no retry-after hint"
  stop_server "$sock" "0"

  # 4. Empty qlogs are refused, not vacuously passed.
  echo "== qlog empty-file gates =="
  : > "$W/empty.jsonl"
  expect_rc 2 "$CLI" qlog report --in="$W/empty.jsonl" \
    --slo="$W/replay.spec"
  grep -q 'vacuous' "$W/err.txt" || fail "empty qlog --slo: no diagnostic"
  expect_rc 2 "$CLI" qlog diff "$W/empty.jsonl" "$W/empty.jsonl"
  grep -q 'vacuous' "$W/err.txt" || fail "empty qlog diff: no diagnostic"

  # 5. The sharing path's unit and end-to-end tests under TSan, then
  # chaos: plain, ASan, TSan. TSan queries stay at threads=1: libgomp is
  # not TSan-instrumented, so the concurrency under test is the server's
  # own (sessions, workers, the result table).
  OMP_NUM_THREADS=1 run_tests tsan tsan "$SERVE_TSAN_FILTER" server_test
  soak "$CLI" plain
  soak "$PREFIX/asan/tools/mio" asan
  OMP_NUM_THREADS=1 soak "$PREFIX/tsan/tools/mio" tsan
}

stage_obs_serve() {
  local CLI=$PREFIX/plain/tools/mio soak_pid
  build_tree plain
  dataset "$CLI"
  # Raw-protocol soak client: N threads, each sending its queries on
  # fresh connections with distinct correlation ids, recording every
  # response verbatim. Transport failures (raced the drain) are
  # tolerated: the differential reasons about responses that came back.
  cat > "$W/soak.py" << 'PYEOF'
import json
import socket
import sys
import threading

sock_path, out_path = sys.argv[1], sys.argv[2]
n_clients, n_queries = int(sys.argv[3]), int(sys.argv[4])
lock = threading.Lock()
responses = []


def run(c):
    for i in range(n_queries):
        req = {"schema": "mio-serve-v1", "id": f"c{c}-q{i}", "op": "query",
               "r": 3.0 + (i % 3) * 1.5, "k": 2, "threads": 1,
               "no_coalesce": i % 4 == 0}
        try:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.settimeout(30)
            s.connect(sock_path)
            s.sendall((json.dumps(req) + "\n").encode())
            buf = b""
            while b"\n" not in buf:
                chunk = s.recv(4096)
                if not chunk:
                    break
                buf += chunk
            s.close()
        except OSError:
            continue
        line = buf.split(b"\n", 1)[0].decode()
        if line:
            with lock:
                responses.append(json.loads(line))


threads = [threading.Thread(target=run, args=(c,)) for c in range(n_clients)]
for t in threads:
    t.start()
for t in threads:
    t.join()
with open(out_path, "w") as f:
    for doc in responses:
        f.write(json.dumps(doc) + "\n")
print(f"soak: {len(responses)} responses")
PYEOF

  # Two-way differential: responses vs qlog, plus the server log's drain
  # markers. validate_obs.py RESPONSES QLOG SERVER_LOG EXPECTED; EXPECTED
  # > 0 also requires that many responses, none refused, and a qlog of
  # exactly the responded requests (the clean soak); 0 skips that (the
  # drain, where transport races and refusals are legitimate).
  cat > "$W/validate_obs.py" << 'PYEOF'
import json
import sys

resp_path, qlog_path, log_path, expected = (
    sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]))
fails = 0


def fail(msg):
    global fails
    print(f"FAILED: {msg}", file=sys.stderr)
    fails += 1


def load_jsonl(path):
    docs = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: not JSON: {e}")
    return docs


responses = load_jsonl(resp_path)
qlog = load_jsonl(qlog_path)

ROLES = {"solo", "leader", "follower", "cached", "refused"}
STAGE_ORDER = ["accepted", "enqueued", "dequeued", "executed", "responded"]

# --- qlog: one record per query request, monotonic stages -------------------
records = {}  # request_id -> record
for rec in qlog:
    if rec.get("schema") != "mio-qlog-v1":
        fail(f"qlog schema {rec.get('schema')!r}")
    server = rec.get("server")
    if not server:
        fail(f"qlog record without a server section: {rec}")
        continue
    rid = server.get("request_id", "")
    if not rid:
        fail(f"qlog record without a request_id: {rec}")
        continue
    if rid in records:
        fail(f"{rid}: two qlog records (want exactly one per request)")
    records[rid] = rec
    role = server.get("role")
    if role not in ROLES:
        fail(f"{rid}: bad role {role!r}")
    if server.get("queue_wait_seconds", 0) < 0:
        fail(f"{rid}: negative queue wait")
    stages = server.get("stages", {})
    for s in ("accepted", "responded"):
        if s not in stages:
            fail(f"{rid}: no {s} stage")
    stamped = [stages[s] for s in STAGE_ORDER if s in stages]
    if any(b < a for a, b in zip(stamped, stamped[1:])):
        fail(f"{rid}: non-monotonic stages {stages}")
    if role == "refused":
        if "enqueued" in stages:
            fail(f"{rid}: refusal has an enqueued stage")
        if rec.get("outcome", {}).get("status") != "Overloaded":
            fail(f"{rid}: refused record is not Overloaded")
        if not server.get("retry_after_ms", 0) > 0:
            fail(f"{rid}: refusal without retry hint")
    elif not server.get("e2e_seconds", 0) > 0:
        fail(f"{rid}: non-positive e2e")

# --- responses: unique ids, each matched by its one record -------------------
seen_ids = set()
refused = 0
for res in responses:
    rid = res.get("request_id", "")
    if not rid:
        fail(f"response without request_id: {res}")
        continue
    if rid in seen_ids:
        fail(f"duplicate request_id across responses: {rid}")
    seen_ids.add(rid)
    rec = records.get(rid)
    if rec is None:
        fail(f"{rid}: response status {res.get('status')!r} has no qlog "
             f"record")
        continue
    is_refusal = res.get("status") == "Overloaded"
    refused += is_refusal
    if is_refusal != (rec["server"].get("role") == "refused"):
        fail(f"{rid}: response status {res.get('status')!r} vs record role "
             f"{rec['server'].get('role')!r}")
    if rec["outcome"].get("status") != res.get("status"):
        fail(f"{rid}: status mismatch (qlog "
             f"{rec['outcome'].get('status')!r}, response "
             f"{res.get('status')!r})")
    if rec["server"].get("correlation_id", "") != res.get("id", ""):
        fail(f"{rid}: correlation id mismatch "
             f"(qlog {rec['server'].get('correlation_id')!r}, "
             f"response {res.get('id')!r})")

# --- server log: each drain marker exactly once ------------------------------
with open(log_path) as f:
    log = f.read().splitlines()
begin = sum(line.startswith("serve: drain begin") for line in log)
end = sum(line.startswith("serve: drained") for line in log)
if begin != 1 or end != 1:
    fail(f"drain markers begin={begin} end={end} (want 1/1)")

if expected > 0:
    if len(responses) != expected:
        fail(f"{len(responses)} responses (want {expected})")
    if set(records) != seen_ids:
        fail(f"qlog ids != response ids "
             f"(qlog-only {sorted(set(records) - seen_ids)[:5]}, "
             f"response-only {sorted(seen_ids - set(records))[:5]})")
    if refused:
        fail(f"{refused} unexpected refusals in a clean soak")

if fails:
    sys.exit(1)
print(f"differential: {len(responses)} responses ({refused} refused), "
      f"{len(records)} qlog records — consistent")
PYEOF

  # 1. Clean 8-client soak: full observability + differential.
  echo "== soak: 8 clients x 6 queries, qlog+traces on =="
  mkdir -p "$W/traces"
  start_server "$CLI" "$W/mio.sock" "" --workers=2 --max-queue=16 \
    --cache=8 --qlog="$W/serve.jsonl" --trace-dir="$W/traces" \
    --tail-slowest=3 --metrics-out="$W/serve.prom" \
    --telemetry-interval-ms=100
  python3 "$W/soak.py" "$W/mio.sock" "$W/responses.jsonl" 8 6
  echo "== mio top --once against the live server =="
  "$CLI" top --connect="$W/mio.sock" --once > "$W/top.out"
  grep -q 'mio serve' "$W/top.out" \
    || { cat "$W/top.out"; fail "top missing header"; }
  grep -q 'end-to-end' "$W/top.out" || fail "top missing latency lines"
  grep -q '^client' "$W/top.out" || fail "top missing per-client table"
  stop_server "$W/mio.sock" "0"
  echo "== differential: responses vs qlog =="
  python3 "$W/validate_obs.py" "$W/responses.jsonl" "$W/serve.jsonl" \
    "$W/mio.sock.log" 48
  echo "== qlog report shows the server split =="
  "$CLI" qlog report --in="$W/serve.jsonl" > "$W/report.out"
  grep -q 'server: 48 requests' "$W/report.out" \
    || { cat "$W/report.out"; fail "report missing server split"; }
  grep -q 'queue wait' "$W/report.out" || fail "report missing queue wait"
  echo "== tail traces named by request id =="
  find "$W/traces" -name 'r[0-9][0-9][0-9][0-9][0-9][0-9].trace.json' \
    | grep -q . || { ls "$W/traces"; fail "no request-id-named traces"; }
  echo "== OpenMetrics scrape declares the server histograms =="
  python3 "$SRC/scripts/validate_openmetrics.py" \
    --require=mio_server_queue_wait_us,mio_server_e2e_us "$W/serve.prom"

  # 2. SIGTERM mid-burst with forced refusals.
  echo "== drain accounting: refusal storm + SIGTERM mid-burst =="
  start_server "$CLI" "$W/drain.sock" 'server.enqueue:p=0.5' \
    --workers=1 --max-queue=2 --qlog="$W/drain.jsonl"
  python3 "$W/soak.py" "$W/drain.sock" "$W/drain-responses.jsonl" 8 6 \
    > "$W/drain-soak.out" &
  soak_pid=$!
  sleep 0.3 # let the burst get in flight before the signal lands
  kill -TERM "$SERVER_PID" 2> /dev/null || true
  wait "$soak_pid" || fail "drain soak client crashed"
  reap_server "$W/drain.sock" "0 9"
  python3 "$W/validate_obs.py" "$W/drain-responses.jsonl" \
    "$W/drain.jsonl" "$W/drain.sock.log" 0

  # 3. Observability overhead: qlog only (both sides need per-query
  # records; cache off so every request executes) vs the full stack.
  echo "== observability overhead A/B (threshold $AB_THRESHOLD) =="
  cat > "$W/canonical.spec" << 'SPEC'
name bench-canonical
defaults k=1 threads=1 labels=off
repeat 30 r=3,4.5,9
SPEC
  start_server "$CLI" "$W/ab.sock" "" --workers=2 --cache=0 \
    --qlog="$W/ab-base.jsonl"
  "$CLI" run-workload --spec="$W/canonical.spec" --connect="$W/ab.sock" \
    > /dev/null
  stop_server "$W/ab.sock" "0"
  mkdir -p "$W/ab-traces"
  start_server "$CLI" "$W/ab.sock" "" --workers=2 --cache=0 \
    --qlog="$W/ab-full.jsonl" --trace-dir="$W/ab-traces" --tail-slowest=3 \
    --metrics-out="$W/ab.prom" --telemetry-interval-ms=100
  "$CLI" run-workload --spec="$W/canonical.spec" --connect="$W/ab.sock" \
    > /dev/null
  stop_server "$W/ab.sock" "0"
  "$CLI" qlog diff "$W/ab-base.jsonl" "$W/ab-full.jsonl" \
    --threshold=$AB_THRESHOLD || fail "observability overhead A/B"
}

stage_lint() {
  local f
  echo "== bash -n scripts/*.sh =="
  for f in "$SRC"/scripts/*.sh; do
    bash -n "$f" || fail "bash -n $f"
    echo "  ok: $f"
  done
  if command -v shellcheck > /dev/null 2>&1; then
    echo "== shellcheck scripts/*.sh =="
    shellcheck "$SRC"/scripts/*.sh
  else
    echo "skip: shellcheck not installed — bash -n only" >&2
    NOTE=" (shellcheck not installed: bash -n only)"
  fi
  echo "== python3 compile check scripts/*.py =="
  # py_compile would litter scripts/__pycache__; compile() gives the same
  # syntax check with no bytecode side effects.
  python3 - "$SRC"/scripts/*.py << 'PYEOF'
import sys
for path in sys.argv[1:]:
    with open(path, "rb") as f:
        compile(f.read(), path, "exec")
    print(f"  ok: {path}")
PYEOF
}

for s in "${RUN[@]}"; do
  echo "===== stage: $s ====="
  W=$WORK/$s
  mkdir -p "$W"
  NOTE=
  t0=$SECONDS
  "stage_$s"
  echo "$s: all passes clean$NOTE ($((SECONDS - t0))s)"
done
echo "check: ${RUN[*]} passed in ${SECONDS}s"
