#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 miobench/run.py --workload syn-cold --seed 1 --seconds 20 --trace 0

Builds the mio library, the `mio` CLI and the mio_bench driver from this
source tree into $CARGO_TARGET_DIR/miobench (default .bench_build/miobench),
runs mio_bench there, and prints its record line followed by one result
line: {"correct", "attempted", "failed", "metrics"} holding every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer metric
(--trace 1). Exits non-zero when the build fails, a metric is missing, or
any answer disagrees with the oracle.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("syn-cold", "bird-warm", "bird-batch", "serve-mix")


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (ROOT / target / "miobench").resolve()


def build():
    """Configures and builds the driver and the CLI; logs to a file."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "mio_bench",
              "mio_cli", "-j", "4"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(f"run.py: build failed (see {log_path})")
    return out


def run_driver(out, args, golden=None):
    """Runs mio_bench in the build tree; returns (exit code, record)."""
    work = out / "work"
    work.mkdir(exist_ok=True)
    cmd = [str(out / "mio_bench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--mio={out / 'mio' / 'tools' / 'mio'}",
           f"--golden={golden or HERE / 'golden.json'}"]
    if args.trace:
        cmd += ["--trace", f"--trace-out=bench-trace-{args.workload}.json"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE, text=True,
                          timeout=175)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1]) if lines and proc.returncode in (0, 1) else None
    return proc.returncode, record


def result_line(record, trace):
    """The result line: the metrics BENCHMARK.json names, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    measured = record["layers" if trace else "e2e"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        sys.exit(f"run.py: metrics not measured: {', '.join(missing)}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink every round to a few seconds")
    return p.parse_args(argv)


def main():
    args = parse_args()
    out = build()
    code, record = run_driver(out, args)
    if record is None:
        sys.exit(f"run.py: mio_bench exited {code} without a record")
    print(json.dumps(record))
    print(json.dumps(result_line(record, args.trace)))
    return code


if __name__ == "__main__":
    sys.exit(main())
