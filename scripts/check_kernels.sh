#!/usr/bin/env bash
# Kernel-layer gate: builds the kernel + verification tests under ASan and
# UBSan, runs them, and then runs the same tests under every MIO_KERNEL
# dispatch tier in a plain release build. Catches out-of-bounds lane reads,
# UB in the intrinsics paths, and tier-dependent result drift.
# Usage: scripts/check_kernels.sh [build-dir-prefix]
set -eu

PREFIX=${1:-build-check}
SRC=$(cd "$(dirname "$0")/.." && pwd)
# The tests that exercise the kernels and everything routed through them,
# including cell-major verification on fresh grids (bounds_test) and on
# cached grids with memoised b_adj (batch_test, grid_reuse_test), the EWAH
# word iterator its posting walk runs on (ewah_test), the 2-D small grid
# that feeds its seed (planar_test), and the temporal variant's domain
# checks (temporal_test).
TESTS="kernels_test geo_test kdtree_test bigrid_test baseline_test \
  mio_engine_test fuzz_differential_test parallel_test obs_test \
  bounds_test batch_test grid_reuse_test ewah_test planar_test \
  temporal_test"
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

run_tests() { # run_tests <dir> <label>
  local dir=$1 label=$2
  for t in $TESTS; do
    echo "  [$label] $t"
    "$dir/tests/$t" --gtest_brief=1 || { echo "FAILED: $label $t"; exit 1; }
  done
}

for san in address undefined; do
  dir="$PREFIX-$san"
  echo "== sanitizer: $san =="
  build "$dir" -DMIO_SANITIZE=$san
  run_tests "$dir" "$san"
done

dir="$PREFIX-release"
echo "== dispatch tiers =="
build "$dir"
for tier in scalar sse2 avx2; do
  MIO_KERNEL=$tier run_tests "$dir" "MIO_KERNEL=$tier"
done

echo "check_kernels: all passes clean"

# The robustness gate (guardrails, fault injection, corruption matrix)
# rides along unless explicitly skipped.
if [ "${MIO_SKIP_ROBUSTNESS:-0}" != "1" ]; then
  "$SRC/scripts/check_robustness.sh" "$PREFIX-robust"
fi
