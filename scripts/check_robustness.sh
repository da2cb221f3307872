#!/usr/bin/env bash
# Robustness gate: builds the guardrail + IO test binaries under ASan and
# UBSan and runs them (the corruption matrix and the fault-injection paths
# must stay clean under both), then runs a high-probability fault storm
# (MIO_FAULT over every IO site) against the fault-tolerant suites in a
# plain release build. Catches allocator abuse from corrupt headers, UB in
# the degradation paths, and error-path leaks.
# Usage: scripts/check_robustness.sh [build-dir-prefix]
set -eu

PREFIX=${1:-build-robust}
SRC=$(cd "$(dirname "$0")/.." && pwd)
# The tests that exercise the guardrails, fault sites, and hardened IO,
# the workload-spec and serve-protocol parsers' numeric domain, the qlog
# reader and the protocol fuzz loops, the telemetry sampler thread, and
# the request-lifecycle helpers.
TESTS="robustness_test io_test importers_test mio_engine_test \
  workload_test server_test qlog_test telemetry_test obs_serve_test"
JOBS=$(nproc 2>/dev/null || echo 2)

build() { # build <dir> <extra cmake flags...>
  local dir=$1; shift
  cmake -B "$dir" -S "$SRC" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMIO_BUILD_BENCHMARKS=OFF -DMIO_BUILD_EXAMPLES=OFF "$@" \
    > "$dir.cmake.log" 2>&1 || { cat "$dir.cmake.log"; exit 1; }
  local targets
  targets=$(for t in $TESTS; do printf ' --target %s' "$t"; done)
  # shellcheck disable=SC2086
  cmake --build "$dir" $targets -j "$JOBS" \
    > "$dir.build.log" 2>&1 || { tail -50 "$dir.build.log"; exit 1; }
}

run_tests() { # run_tests <dir> <label> [gtest filter]
  local dir=$1 label=$2 filter=${3:-*}
  for t in $TESTS; do
    echo "  [$label] $t"
    "$dir/tests/$t" --gtest_brief=1 --gtest_filter="$filter" \
      || { echo "FAILED: $label $t"; exit 1; }
  done
}

for san in address undefined; do
  dir="$PREFIX-$san"
  echo "== sanitizer: $san =="
  build "$dir" -DMIO_SANITIZE=$san
  run_tests "$dir" "$san"
done

# Fault storm against the CLI: every IO site armed at 30% per hit with a
# different deterministic stream per round. Each invocation must either
# succeed (exit 0) or fail with one of the documented per-status exit
# codes (2..11, docs/ROBUSTNESS.md) and a message — never a crash signal.
dir="$PREFIX-release"
echo "== fault storm: MIO_FAULT='io.*:p=0.3' over mio_cli =="
cmake -B "$dir" -S "$SRC" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMIO_BUILD_BENCHMARKS=OFF -DMIO_BUILD_EXAMPLES=OFF -DMIO_BUILD_TESTS=OFF \
  > "$dir.cmake.log" 2>&1 || { cat "$dir.cmake.log"; exit 1; }
cmake --build "$dir" --target mio_cli -j "$JOBS" \
  > "$dir.cli.log" 2>&1 || { tail -50 "$dir.cli.log"; exit 1; }
CLI="$dir/tools/mio"  # target mio_cli, output name mio
STORM_DIR=$(mktemp -d)
trap 'rm -rf "$STORM_DIR"' EXIT
"$CLI" generate --preset=bird2 --scale=quick --out="$STORM_DIR/data.bin" \
  > /dev/null || { echo "FAILED: storm dataset generation"; exit 1; }
for seed in 1 2 3 4 5 6 7 8; do
  for cmd in \
    "query --in=$STORM_DIR/data.bin --r=2 --labels=$STORM_DIR/labels" \
    "convert --in=$STORM_DIR/data.bin --out=$STORM_DIR/copy.bin" \
    "stats --in=$STORM_DIR/data.bin"; do
    set +e
    # shellcheck disable=SC2086
    MIO_FAULT='io.*:p=0.3' MIO_FAULT_SEED=$seed "$CLI" $cmd \
      > /dev/null 2> "$STORM_DIR/err.txt"
    rc=$?
    set -e
    if [ "$rc" -ne 0 ] && { [ "$rc" -lt 2 ] || [ "$rc" -gt 11 ]; }; then
      echo "FAILED: storm seed=$seed '$cmd' exited $rc (crash?)"
      cat "$STORM_DIR/err.txt"
      exit 1
    fi
    if [ "$rc" -ne 0 ] && [ ! -s "$STORM_DIR/err.txt" ]; then
      echo "FAILED: storm seed=$seed '$cmd' failed silently (rc=$rc)"
      exit 1
    fi
    echo "  [storm] seed=$seed rc=$rc  ${cmd%% *}"
  done
done

# Out-of-domain CLI input: each must exit 2 (InvalidArgument) with a
# message, never run (k = -1 once verified every object and printed them
# all), crash (--delta on untimestamped data) or hang (SG at r = 1e-300).
echo "== out-of-domain CLI input =="
for args in "--k=-1" "--k=abc" "--threads=99999999999" "--delta=5" \
  "--algo=sg --r=1e-300" "--algo=nl --r=-1"; do
  set +e
  # shellcheck disable=SC2086
  timeout 60 "$CLI" query --in="$STORM_DIR/data.bin" --r=2 $args \
    > /dev/null 2> "$STORM_DIR/err.txt"
  rc=$?
  set -e
  if [ "$rc" -ne 2 ] || [ ! -s "$STORM_DIR/err.txt" ]; then
    echo "FAILED: 'mio query $args' exited $rc (want 2 with a message)"
    cat "$STORM_DIR/err.txt"
    exit 1
  fi
  echo "  [domain] rc=$rc  $args"
done
# `mio serve` checks its numeric flags before it loads or binds: a
# wrapped --max-queue=-1 once disabled overload refusal, and a NaN drain
# deadline reached a float->int cast.
for args in "--max-queue=-1" "--workers=abc" "--cache=-1" \
  "--drain-deadline-ms=nan" "--telemetry-interval-ms=5"; do
  set +e
  # shellcheck disable=SC2086
  timeout 60 "$CLI" serve --in="$STORM_DIR/data.bin" \
    --socket="$STORM_DIR/serve.sock" $args \
    > /dev/null 2> "$STORM_DIR/err.txt"
  rc=$?
  set -e
  if [ "$rc" -ne 2 ] || [ ! -s "$STORM_DIR/err.txt" ] \
    || [ -e "$STORM_DIR/serve.sock" ]; then
    echo "FAILED: 'mio serve $args' exited $rc (want 2 with a message" \
      "and no socket)"
    cat "$STORM_DIR/err.txt"
    exit 1
  fi
  echo "  [domain] rc=$rc  serve $args"
done

echo "check_robustness: all passes clean"

# The profiling gate (PMU tiers, mio profile/explain) rides along unless
# explicitly skipped.
if [ "${MIO_SKIP_PROFILE:-0}" != "1" ]; then
  "$SRC/scripts/check_profile.sh" "$PREFIX-profile"
fi
