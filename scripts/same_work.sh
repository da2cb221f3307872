#!/usr/bin/env bash
# Same answers and the same work as BASE_REV.
#
#   scripts/same_work.sh BASE_REV [WORKDIR]
#
# Extracts BASE_REV with `git archive`, builds its `mio` and the checked-out
# tree's `mio` in Release, generates the five quick presets with seed 42,
# and runs both binaries over r in {3.0, 4.59375, 6.1} x k in {1, 10} x
# seven modes: serial, --threads=4, --labels recorded at threads 1, then
# reused at threads 1 and at threads 4, and --labels recorded at threads 4
# into a directory of their own, then reused at threads 1. Per
# configuration it compares the answer (the top-k lines and the
# --stats-json candidates, verified and tau_low_max) and the work (the
# distance computations, the lb_cell_ors / ub_cell_ors counters, and the
# bytes of the label files each recording mode wrote). It prints one line
# per configuration, counts the configurations whose answers differ and
# those where only the work differs, and exits 1 on either.
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
        labels4="$W/labels/$side/$p-$r-$k-t4"
        mkdir -p "$labels" "$labels4"
        run "$side" "$mio" "$cfg serial" "${q[@]}" --threads=1
        run "$side" "$mio" "$cfg threads=4" "${q[@]}" --threads=4
        run "$side" "$mio" "$cfg labels-record" "${q[@]}" --threads=1 \
          --labels="$labels"
        run "$side" "$mio" "$cfg labels-reuse-1" "${q[@]}" --threads=1 \
          --labels="$labels"
        run "$side" "$mio" "$cfg labels-reuse-4" "${q[@]}" --threads=4 \
          --labels="$labels"
        run "$side" "$mio" "$cfg labels-record-4" "${q[@]}" --threads=4 \
          --labels="$labels4"
        run "$side" "$mio" "$cfg labels-4-reuse-1" "${q[@]}" --threads=1 \
          --labels="$labels4"
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
         "labels-reuse-4", "labels-record-4", "labels-4-reuse-1"]
# The label directory each recording mode writes.
recorded = {"labels-record": "", "labels-record-4": "-t4"}
answer_keys = ["candidates", "verified", "tau_low_max"]
work_keys = ["distance_computations"]
counter_keys = ["lb_cell_ors", "ub_cell_ors"]


def read(side, cfg):
    with open(os.path.join(w, "out", side, cfg + ".txt")) as f:
        top = [line.rstrip() for line in f if line.startswith("object ")]
    with open(os.path.join(w, "out", side, cfg + ".json")) as f:
        record = json.loads(f.read())
    counters = record.get("metrics", {}).get("counters", {})
    answer = {k: record["funnel"].get(k) for k in answer_keys}
    work = {k: record["funnel"].get(k) for k in work_keys}
    work.update({k: counters.get(k, 0) for k in counter_keys})
    return top, answer, work


def label_bytes(side, p, r, k, suffix):
    d = os.path.join(w, "labels", side, f"{p}-{r}-{k}{suffix}")
    files = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            files[name] = f.read()
    return files


def diffs(base, cand):
    return [f"{key} {base[key]} -> {cand[key]}"
            for key in base if base[key] != cand[key]]


configs = answers_differ = work_differs = 0
for p in presets:
    for r in radii:
        for k in ks:
            for mode in modes:
                cfg = f"{p} r={r} k={k} {mode}"
                base_top, base_answer, base_work = read("base", cfg)
                cand_top, cand_answer, cand_work = read("cand", cfg)
                answer = ["top-k"] if base_top != cand_top else []
                answer += diffs(base_answer, cand_answer)
                work = diffs(base_work, cand_work)
                if mode in recorded:
                    base_labels = label_bytes("base", p, r, k, recorded[mode])
                    cand_labels = label_bytes("cand", p, r, k, recorded[mode])
                    if base_labels != cand_labels or not base_labels:
                        work.append("label files")
                configs += 1
                winner = base_top[0] if base_top else "no winner"
                if answer:
                    answers_differ += 1
                    print(f"DIFF answer  {cfg}: {'; '.join(answer + work)}")
                elif work:
                    work_differs += 1
                    print(f"DIFF work    {cfg}: {'; '.join(work)}")
                else:
                    print(f"same  {cfg}: {winner}, "
                          f"{base_answer['verified']} verified, "
                          f"{base_work['distance_computations']} comparisons")
print(f"same_work: {configs} configurations, {answers_differ} with "
      f"different answers, {work_differs} with the same answers and "
      f"different work")
sys.exit(1 if answers_differ or work_differs else 0)
PYEOF
