#!/usr/bin/env python3
"""Self-check and calibration of the repository benchmark.

    python3 miobench/check.py smoke
    python3 miobench/check.py calibrate [--runs 10] [--sets 2] [--first-seed 1]

smoke: runs every workload shrunk (--smoke), untraced and traced, through
run.py, and fails unless each run exits 0, checks its answers and prints
every metric BENCHMARK.json names; then corrupts one golden answer and
fails unless that run reports the mismatch. Takes about a minute.

calibrate: runs every workload --runs times, each with another seed and
the workload order alternating, and repeats the whole set --sets times
interleaved (set 2 reruns seed 1 right after set 1 does). Prints, per
workload and end-to-end metric, each set's median and quartile spread
(q3 - q1) / median, the metric's bound, and how far each later set's
median moved from the first set's in the worse direction.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (sibling module)


def run_once(workload, seed, seconds, trace, smoke=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def smoke():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, result = run_once(workload, 1, 1, trace, smoke=True)
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}")
            elif not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']}")
            elif sorted(result["metrics"]) != sorted(names):
                problems.append(f"{label}: metrics {sorted(result['metrics'])}")
            print(f"smoke {label}: exit {code}", file=sys.stderr)

    # Smoke syn-cold queries the two largest pool radii; break the last one.
    golden = json.loads((HERE / "golden.json").read_text())
    golden["datasets"]["syn"]["answers"][-1]["score"] += 1
    out = run.build()
    corrupt = out / "golden-corrupt.json"
    corrupt.write_text(json.dumps(golden))
    args = run.parse_args(["--workload", "syn-cold", "--seed", "1",
                           "--seconds", "1", "--smoke"])
    code, record = run.run_driver(out, args, golden=corrupt)
    if code != 1 or record is None or record["correct"]:
        problems.append(f"corrupted golden answer not detected (exit {code})")
    print(f"smoke corrupted golden: exit {code}", file=sys.stderr)

    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def calibrate(runs, sets, first_seed):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    values = {}  # (set, workload, metric) -> [value per run]
    for i in range(runs):
        order = run.WORKLOADS if i % 2 == 0 else run.WORKLOADS[::-1]
        for s in range(sets):
            for workload in order:
                code, result = run_once(workload, first_seed + i,
                                        spec["run_seconds"], 0)
                if code != 0 or not result or not result["correct"]:
                    sys.exit(f"calibrate: {workload} seed {first_seed + i} "
                             f"failed (exit {code})")
                for name, m in result["metrics"].items():
                    values.setdefault((s, workload, name), []).append(m["value"])
                print(f"set {s + 1} run {i + 1}/{runs} {workload}: " +
                      json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                      file=sys.stderr)

    summary = []
    print(f"{'workload':11} {'metric':12} {'set':>3} {'median':>12} "
          f"{'spread':>7} {'bound':>6} {'drift':>7}")
    for workload in run.WORKLOADS:
        for m in metrics:
            first_median = None
            for s in range(sets):
                q1, median, q3 = quartiles(values[(s, workload, m["name"])])
                spread = (q3 - q1) / median
                if first_median is None:
                    first_median = median
                sign = 1 if m["better"] == "lower" else -1
                drift = sign * (median - first_median) / first_median
                summary.append({"workload": workload, "metric": m["name"],
                                "set": s + 1, "median": median,
                                "spread": spread, "bound": m["bound"],
                                "drift": drift})
                print(f"{workload:11} {m['name']:12} {s + 1:>3} {median:>12.6g} "
                      f"{spread:>7.4f} {m['bound']:>6.3f} {drift:>+7.4f}")
    print(json.dumps({"runs": runs, "sets": sets, "first_seed": first_seed,
                      "summary": summary}))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("smoke")
    cal = sub.add_parser("calibrate")
    cal.add_argument("--runs", type=int, default=10)
    cal.add_argument("--sets", type=int, default=2)
    cal.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    if args.cmd == "smoke":
        return smoke()
    return calibrate(args.runs, args.sets, args.first_seed)


if __name__ == "__main__":
    sys.exit(main())
