#!/usr/bin/env python3
"""Validate a mio OpenMetrics text exposition (and optionally check counter
monotonicity across two scrapes).

Checks, per file:
  - every sample line belongs to a preceding `# TYPE <name> <type>` family
    (process_* gauges included — everything must be declared);
  - metric names match the OpenMetrics grammar [a-z_][a-z0-9_]*;
  - counter samples use the `_total` suffix and are finite and >= 0;
  - histogram families expose `_bucket{le=...}` with non-decreasing `le`
    and non-decreasing cumulative counts, ending in an `le="+Inf"` bucket
    whose count equals `_count`, plus `_sum` and `_count` samples;
  - the file ends with exactly one `# EOF` line.

With two files, additionally checks that every counter present in both
scrapes is monotone (second value >= first) — the property Prometheus
rate() depends on.

Each `--require=FAMILY` (repeatable, comma-separable) names a metric
family that must be declared with a `# TYPE` line in every validated
file — the serve observability gate uses it to prove the server latency
histograms actually reached the exposition, since a scrape that simply
omits a family would otherwise validate fine.

Usage:
  scripts/validate_openmetrics.py [--require=FAMILY ...] SCRAPE
                                  [LATER_SCRAPE]

Exit status: 0 valid, 1 invalid (problems on stderr).
"""

import math
import re
import sys

NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: (?P<timestamp>\S+))?$"
)
LE_RE = re.compile(r'le="(?P<le>[^"]+)"')


class Problems:
    def __init__(self, path):
        self.path = path
        self.count = 0

    def add(self, lineno, message):
        print(f"{self.path}:{lineno}: {message}", file=sys.stderr)
        self.count += 1


def parse_value(text):
    try:
        return float(text)
    except ValueError:
        return None


def parse_le(text):
    if text == "+Inf":
        return math.inf
    return parse_value(text)


def validate_file(path, required=()):
    """Returns ({counter name: value}, ok)."""
    problems = Problems(path)
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().split("\n")
    except OSError as e:
        print(f"{path}: cannot read: {e}", file=sys.stderr)
        return {}, False
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline

    if not lines or lines[-1] != "# EOF":
        problems.add(len(lines), "missing terminating '# EOF' line")

    types = {}       # family name -> type
    counters = {}    # counter sample name (with _total) -> value
    histograms = {}  # family name -> {"buckets": [(le, cum, lineno)],
                     #                 "sum": float|None, "count": float|None}
    for lineno, line in enumerate(lines, 1):
        if line == "# EOF":
            if lineno != len(lines):
                problems.add(lineno, "'# EOF' before the end of the file")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                problems.add(lineno, f"malformed TYPE line: {line!r}")
                continue
            _, _, name, family_type = parts
            if not NAME_RE.match(name):
                problems.add(lineno, f"illegal metric name {name!r}")
            if family_type not in ("counter", "gauge", "histogram"):
                problems.add(lineno, f"unknown type {family_type!r}")
            if name in types:
                problems.add(lineno, f"duplicate TYPE for {name!r}")
            types[name] = family_type
            if family_type == "histogram":
                histograms[name] = {"buckets": [], "sum": None, "count": None}
            continue
        if line.startswith("#") or not line.strip():
            continue

        m = SAMPLE_RE.match(line)
        if not m:
            problems.add(lineno, f"malformed sample line: {line!r}")
            continue
        name = m.group("name")
        value = parse_value(m.group("value"))
        if value is None or not math.isfinite(value):
            problems.add(lineno, f"non-finite value on {name!r}")
            continue

        # Match the sample back to its declared family.
        family = None
        for suffix in ("_total", "_bucket", "_sum", "_count", ""):
            if suffix and not name.endswith(suffix):
                continue
            candidate = name[: len(name) - len(suffix)] if suffix else name
            if candidate in types:
                family = candidate
                break
        if family is None:
            problems.add(lineno, f"sample {name!r} has no '# TYPE' family")
            continue
        base = NAME_RE.match(family)
        if not base:
            problems.add(lineno, f"illegal family name {family!r}")

        family_type = types[family]
        if family_type == "counter":
            if not name.endswith("_total"):
                problems.add(
                    lineno, f"counter sample {name!r} must end in '_total'")
            if value < 0:
                problems.add(lineno, f"negative counter {name!r}")
            counters[name] = value
        elif family_type == "histogram":
            h = histograms[family]
            if name.endswith("_bucket"):
                le_match = LE_RE.search(m.group("labels") or "")
                le = parse_le(le_match.group("le")) if le_match else None
                if le is None:
                    problems.add(lineno, f"bucket without a valid 'le' label")
                else:
                    h["buckets"].append((le, value, lineno))
            elif name.endswith("_sum"):
                h["sum"] = value
            elif name.endswith("_count"):
                h["count"] = value
            else:
                problems.add(
                    lineno,
                    f"histogram sample {name!r} is not _bucket/_sum/_count")

    for family, h in histograms.items():
        buckets = h["buckets"]
        if not buckets:
            problems.add(0, f"histogram {family!r} has no buckets")
            continue
        for (le_a, cum_a, _), (le_b, cum_b, lineno) in zip(buckets, buckets[1:]):
            if not le_b > le_a:
                problems.add(
                    lineno, f"{family!r}: 'le' not strictly increasing "
                            f"({le_a} then {le_b})")
            if cum_b < cum_a:
                problems.add(
                    lineno, f"{family!r}: cumulative count decreases "
                            f"({cum_a} then {cum_b})")
        last_le, last_cum, last_lineno = buckets[-1]
        if last_le != math.inf:
            problems.add(last_lineno, f"{family!r}: no 'le=\"+Inf\"' bucket")
        if h["count"] is None:
            problems.add(0, f"histogram {family!r} has no _count sample")
        elif last_le == math.inf and last_cum != h["count"]:
            problems.add(
                last_lineno,
                f"{family!r}: +Inf bucket ({last_cum}) != _count "
                f"({h['count']})")
        if h["sum"] is None:
            problems.add(0, f"histogram {family!r} has no _sum sample")

    for family in required:
        if family not in types:
            problems.add(0, f"required family {family!r} is not declared")

    return counters, problems.count == 0


def main():
    required = []
    argv = []
    for arg in sys.argv[1:]:
        if arg.startswith("--require="):
            required.extend(
                name for name in arg[len("--require="):].split(",") if name)
        elif arg == "--help":
            print(__doc__, file=sys.stderr)
            return 2
        else:
            argv.append(arg)
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2

    ok = True
    counter_maps = []
    for path in argv:
        counters, file_ok = validate_file(path, required)
        counter_maps.append(counters)
        ok = ok and file_ok
        print(f"{path}: {'valid' if file_ok else 'INVALID'} "
              f"({len(counters)} counter sample(s))")

    if len(counter_maps) == 2:
        first, second = counter_maps
        for name in sorted(set(first) & set(second)):
            if second[name] < first[name]:
                print(f"counter {name!r} went backwards between scrapes: "
                      f"{first[name]} -> {second[name]}", file=sys.stderr)
                ok = False
        shared = len(set(first) & set(second))
        print(f"counter monotonicity: {shared} shared counter(s) checked")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
