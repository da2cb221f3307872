#!/usr/bin/env bash
# Same answers and the same work as BASE_REV.
#
#   scripts/same_work.sh BASE_REV [WORKDIR]
#
# Extracts BASE_REV with `git archive`, builds its `mio` and the checked-out
# tree's `mio` in Release, generates the five quick presets with seed 42,
# and runs both binaries over r in {3.0, 4.59375, 6.1} x k in {1, 10} x
# five modes: serial, --threads=4, and --labels recorded at threads 1,
# then reused at threads 1 and at threads 4. Per configuration it
# compares the top-k lines, the --stats-json funnel (candidates, verified,
# distance computations, tau_low_max) and the lb_cell_ors / ub_cell_ors
# counters, and byte-compares the recorded label files. It prints one
# line per configuration and exits 1 on any difference.
#
# WORKDIR (default: a temporary directory, removed on exit) holds both
# builds, the presets and every output.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BASE_REV [WORKDIR]" >&2
  exit 2
fi
BASE_REV=$1
SRC=$(cd "$(dirname "$0")/.." && pwd)
JOBS=$(nproc 2> /dev/null || echo 2)
if [ $# -eq 2 ]; then
  W=$2
  mkdir -p "$W"
else
  W=$(mktemp -d)
  trap 'rm -rf "$W"' EXIT
fi
W=$(cd "$W" && pwd)

PRESETS="bird bird2 syn neuron neuron2"
RADII="3.0 4.59375 6.1"
KS="1 10"

build() {  # build SOURCE_DIR BUILD_DIR
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release > "$2.log" 2>&1
  cmake --build "$2" -j "$JOBS" --target mio_cli >> "$2.log" 2>&1 || {
    echo "same_work: build of $1 failed, see $2.log" >&2
    exit 2
  }
}

echo "== building $BASE_REV and the checked-out tree (Release)"
rm -rf "$W/base-src"
mkdir -p "$W/base-src"
git -C "$SRC" archive "$BASE_REV" | tar -x -C "$W/base-src"
build "$W/base-src" "$W/base-build"
build "$SRC" "$W/cand-build"
BASE_MIO=$W/base-build/tools/mio
CAND_MIO=$W/cand-build/tools/mio

echo "== generating the quick presets (seed 42)"
mkdir -p "$W/data"
for p in $PRESETS; do
  "$CAND_MIO" generate --preset="$p" --scale=quick --seed=42 \
    --out="$W/data/$p.bin" > /dev/null
done

run() {  # run SIDE MIO CONFIG FLAGS...
  local side=$1 mio=$2 cfg=$3
  shift 3
  "$mio" query "$@" --stats-json="$W/out/$side/$cfg.json" \
    > "$W/out/$side/$cfg.txt"
}

echo "== running both sides"
for side in base cand; do
  mio=$BASE_MIO
  [ "$side" = cand ] && mio=$CAND_MIO
  rm -rf "$W/out/$side" "$W/labels/$side"
  mkdir -p "$W/out/$side" "$W/labels/$side"
  for p in $PRESETS; do
    for r in $RADII; do
      for k in $KS; do
        cfg="$p r=$r k=$k"
        q=(--in="$W/data/$p.bin" --r="$r" --k="$k")
        labels="$W/labels/$side/$p-$r-$k"
        mkdir -p "$labels"
        run "$side" "$mio" "$cfg serial" "${q[@]}" --threads=1
        run "$side" "$mio" "$cfg threads=4" "${q[@]}" --threads=4
        run "$side" "$mio" "$cfg labels-record" "${q[@]}" --threads=1 \
          --labels="$labels"
        run "$side" "$mio" "$cfg labels-reuse-1" "${q[@]}" --threads=1 \
          --labels="$labels"
        run "$side" "$mio" "$cfg labels-reuse-4" "${q[@]}" --threads=4 \
          --labels="$labels"
      done
    done
  done
done

python3 - "$W" << 'PYEOF'
import json
import os
import sys

w = sys.argv[1]
presets = "bird bird2 syn neuron neuron2".split()
radii = "3.0 4.59375 6.1".split()
ks = "1 10".split()
modes = ["serial", "threads=4", "labels-record", "labels-reuse-1",
         "labels-reuse-4"]
funnel_keys = ["candidates", "verified", "distance_computations",
               "tau_low_max"]
counter_keys = ["lb_cell_ors", "ub_cell_ors"]


def read(side, cfg):
    with open(os.path.join(w, "out", side, cfg + ".txt")) as f:
        top = [line.rstrip() for line in f if line.startswith("object ")]
    with open(os.path.join(w, "out", side, cfg + ".json")) as f:
        record = json.loads(f.read())
    counters = record.get("metrics", {}).get("counters", {})
    work = {k: record["funnel"].get(k) for k in funnel_keys}
    work.update({k: counters.get(k, 0) for k in counter_keys})
    return top, work


def label_bytes(side, p, r, k):
    d = os.path.join(w, "labels", side, f"{p}-{r}-{k}")
    files = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            files[name] = f.read()
    return files


configs = differ = 0
for p in presets:
    for r in radii:
        for k in ks:
            for mode in modes:
                cfg = f"{p} r={r} k={k} {mode}"
                base_top, base_work = read("base", cfg)
                cand_top, cand_work = read("cand", cfg)
                why = []
                if base_top != cand_top:
                    why.append("top-k")
                why += [f"{key} {base_work[key]} -> {cand_work[key]}"
                        for key in base_work
                        if base_work[key] != cand_work[key]]
                if mode == "labels-record":
                    base_labels = label_bytes("base", p, r, k)
                    cand_labels = label_bytes("cand", p, r, k)
                    if base_labels != cand_labels or not base_labels:
                        why.append("label files")
                configs += 1
                winner = base_top[0] if base_top else "no winner"
                if why:
                    differ += 1
                    print(f"DIFF  {cfg}: {'; '.join(why)}")
                else:
                    print(f"same  {cfg}: {winner}, "
                          f"{base_work['verified']} verified, "
                          f"{base_work['distance_computations']} comparisons")
print(f"same_work: {configs} configurations, {differ} differ")
sys.exit(1 if differ else 0)
PYEOF
