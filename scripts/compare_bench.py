#!/usr/bin/env python3
"""Compare two mio bench record files and flag regressions.

Records (JSONL: the output of scripts/run_benches.sh, a harness's
`--json-out`, `mio run-workload --qlog`, `mio query --stats-json` or
`mio profile --out`) are mio-qlog-v1 per-query records, matched by
(workload, dataset, algo, r, k, threads, scale). A harness writes its
name as the workload, so a workload configuration repeated across its
radius cycle reduces to per-radius medians like repeated harness runs
do. The committed BENCH_PR4-6.json files also hold legacy mio-stats-v1
harness records; those are keyed by their `bench` name in the workload
slot, so old and new records of one harness match. A leading
`mio-bench-header-v1` machine-identity line is skipped, as are recorded
`mio-qlog-diff-v1` verdicts, and so are `mio serve` records of refused
requests, which never executed. A configuration repeated within one file
(run_benches.sh repeats each harness for exactly this reason) is reduced
to the median of the compared metric, so a single noisy run cannot fake
a regression. For each matched pair the metric is compared; slowdowns
beyond the threshold are reported and make the script exit non-zero.

Usage:
  scripts/compare_bench.py BASELINE.json CANDIDATE.json [--threshold=0.10]
                           [--metric=total_seconds] [--verbose]
"""

import argparse
import json
import statistics
import sys

SKIPPED_SCHEMAS = {"mio-bench-header-v1", "mio-qlog-diff-v1"}


def load_records(path):
    """Returns ({config key: [doc, ...]}, header) — every run of each
    configuration, plus the leading mio-bench-header-v1 doc (or None)."""
    records = {}
    header = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{lineno}: not valid JSON: {e}")
            schema = doc.get("schema")
            if schema == "mio-bench-header-v1" and header is None:
                header = doc
            if schema in SKIPPED_SCHEMAS:
                continue
            if doc.get("server", {}).get("role") == "refused":
                continue
            if schema == "mio-qlog-v1":
                workload = doc.get("workload", "")
            elif schema == "mio-stats-v1":  # legacy harness record
                workload = doc.get("bench", "")
            else:
                sys.exit(f"{path}:{lineno}: unexpected schema {schema!r} "
                         "(want 'mio-qlog-v1' or legacy 'mio-stats-v1')")
            params = doc.get("params", {})
            key = (
                workload,
                doc.get("dataset", ""),
                doc.get("algo", ""),
                params.get("r", 0),
                params.get("k", 1),
                params.get("threads", 1),
                params.get("scale", ""),
            )
            records.setdefault(key, []).append(doc)
    return records, header


def warn_on_machine_mismatch(base_header, cand_header):
    """Timings from different machines are not comparable — shout when the
    two files' mio-bench-header-v1 machine identities disagree."""
    if base_header is None or cand_header is None:
        return
    base_machine = base_header.get("machine", {})
    cand_machine = cand_header.get("machine", {})
    differing = sorted(
        field
        for field in set(base_machine) | set(cand_machine)
        if base_machine.get(field) != cand_machine.get(field)
    )
    if not differing:
        return
    print("=" * 72, file=sys.stderr)
    print("WARNING: baseline and candidate were measured on DIFFERENT "
          "machines;", file=sys.stderr)
    print("timing comparisons below are unreliable. Differing fields:",
          file=sys.stderr)
    for field in differing:
        print(f"  machine.{field}: {base_machine.get(field)!r} -> "
              f"{cand_machine.get(field)!r}", file=sys.stderr)
    print("=" * 72, file=sys.stderr)


def metric_value(doc, metric):
    if metric in doc:
        value = doc[metric]
        return value if isinstance(value, (int, float)) else None
    # Dotted paths reach nested sections, e.g. phases.verification or
    # funnel.distance_computations.
    node = doc
    for part in metric.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


def median_metric(docs, metric):
    """Median of the metric over a configuration's repeated runs."""
    values = [v for v in (metric_value(d, metric) for d in docs)
              if v is not None]
    return statistics.median(values) if values else None


def key_str(key):
    workload, dataset, algo, r, k, threads, scale = key
    s = f"{workload}/{dataset}/{algo} r={r} k={k} t={threads}"
    return s + (f" [{scale}]" if scale else "")


def batch_speedups(records):
    """Derived metric for bench_batch records: sequential wall / batch wall
    per (dataset, r, k, threads, scale). The paired algo=sequential and
    algo=batch records measure the same query mix, so their ratio is the
    batch throughput speedup."""
    walls = {}
    for key, docs in records.items():
        workload, dataset, algo, r, k, threads, scale = key
        if workload != "batch" or algo not in ("sequential", "batch"):
            continue
        wall = median_metric(docs, "total_seconds")
        if wall is not None:
            walls[(dataset, r, k, threads, scale)] = dict(
                walls.get((dataset, r, k, threads, scale), {}), **{algo: wall})
    out = {}
    for subkey, pair in walls.items():
        if "sequential" in pair and "batch" in pair and pair["batch"] > 0:
            out[subkey] = pair["sequential"] / pair["batch"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative slowdown that counts as a regression "
                         "(default 0.10 = +10%%)")
    ap.add_argument("--metric", default="total_seconds",
                    help="record field to compare; dotted paths allowed, "
                         "e.g. phases.verification (default total_seconds)")
    ap.add_argument("--min-seconds", type=float, default=1e-4,
                    help="ignore pairs where the baseline is below this "
                         "(sub-0.1ms timings are pure noise)")
    ap.add_argument("--verbose", action="store_true",
                    help="print every matched pair, not just regressions")
    args = ap.parse_args()

    base, base_header = load_records(args.baseline)
    cand, cand_header = load_records(args.candidate)
    warn_on_machine_mismatch(base_header, cand_header)
    common = sorted(set(base) & set(cand))
    if not common:
        sys.exit("no matching (workload, dataset, algo, r, k, threads, "
                 "scale) configurations between the two files")

    regressions = []
    improvements = 0
    skipped = 0
    for key in common:
        b = median_metric(base[key], args.metric)
        c = median_metric(cand[key], args.metric)
        if b is None or c is None:
            skipped += 1
            continue
        if args.metric == "total_seconds" and b < args.min_seconds:
            skipped += 1
            continue
        delta = (c - b) / b if b else 0.0
        line = (f"{key_str(key):60s} {args.metric} "
                f"{b:.6g} -> {c:.6g}  ({delta:+.1%})")
        if delta > args.threshold:
            regressions.append(line)
        elif delta < -args.threshold:
            improvements += 1
            if args.verbose:
                print("improved   " + line)
        elif args.verbose:
            print("ok         " + line)

    # Batch throughput: a derived ratio, not a raw timing, so it is
    # reported per file and regression-checked directly (a candidate whose
    # batch speedup collapses can slip past the per-record timing check
    # when both algos sped up or slowed down together).
    base_speedup = batch_speedups(base)
    cand_speedup = batch_speedups(cand)
    for subkey in sorted(set(base_speedup) & set(cand_speedup)):
        dataset, r, k, threads, scale = subkey
        b, c = base_speedup[subkey], cand_speedup[subkey]
        line = (f"batch speedup {dataset} t={threads}"
                + (f" [{scale}]" if scale else "")
                + f": {b:.2f}x -> {c:.2f}x")
        if c < b * (1.0 - args.threshold):
            regressions.append(line)
        else:
            print(line)
    for subkey in sorted(set(cand_speedup) - set(base_speedup)):
        dataset, r, k, threads, scale = subkey
        print(f"batch speedup {dataset} t={threads}"
              + (f" [{scale}]" if scale else "")
              + f": {cand_speedup[subkey]:.2f}x (new)")

    only_base = len(base) - len(common)
    only_cand = len(cand) - len(common)
    print(f"compared {len(common)} configuration(s); "
          f"{only_base} only in baseline, {only_cand} only in candidate, "
          f"{skipped} skipped, {improvements} improved "
          f"(threshold {args.threshold:.0%})")
    if regressions:
        print(f"\n{len(regressions)} REGRESSION(S):")
        for line in regressions:
            print("  " + line)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
