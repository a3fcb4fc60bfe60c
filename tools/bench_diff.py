#!/usr/bin/env python3
"""Diff two s2e.run_report.v1 bench JSON files.

Checks that a freshly generated report still carries every metric of a
committed baseline, and prints how the flat ``metrics`` map (plus
top-level ``wall_seconds``) moved, for information. One run of a bench
against one baseline run cannot tell a regression from noise: the
4-worker fork storm's ``memory_high_watermark_bytes`` alone ranges
67-76 KB between identical runs. So magnitudes never fail the diff;
judge them over repeated runs.

Exit status:
    0  both reports are readable and the fresh one has every baseline
       metric
    2  schema/presence failure: a report is unreadable or not an
       s2e.run_report.v1, or a baseline metric is GONE from the fresh
       report. A counter that stopped being emitted is a wiring bug,
       not noise, so run_checks.sh gates on this hard.

Usage:
    tools/bench_diff.py BASELINE.json FRESH.json
"""

import argparse
import json
import sys


def load_metrics(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_diff: {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if report.get("schema") != "s2e.run_report.v1":
        print(f"bench_diff: {path}: not an s2e.run_report.v1 report",
              file=sys.stderr)
        sys.exit(2)
    metrics = dict(report.get("metrics") or {})
    if "wall_seconds" in report:
        metrics["wall_seconds"] = report["wall_seconds"]
    return report.get("name", "?"), metrics


def main():
    ap = argparse.ArgumentParser(
        description="check bench reports against a committed baseline")
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    args = ap.parse_args()

    base_name, base = load_metrics(args.baseline)
    fresh_name, fresh = load_metrics(args.fresh)
    if base_name != fresh_name:
        print(f"bench_diff: comparing different benches "
              f"({base_name} vs {fresh_name})", file=sys.stderr)

    gone = []
    rows = []
    for name in sorted(set(base) | set(fresh)):
        if name not in base:
            rows.append((name, None, fresh[name], "new"))
            continue
        if name not in fresh:
            rows.append((name, base[name], None, "GONE"))
            gone.append(name)
            continue
        b, f = float(base[name]), float(fresh[name])
        if b == f:
            continue
        rows.append((name, b, f,
                     f"{(f - b) / abs(b):+.1%}" if b else "+inf"))

    if not rows:
        print(f"bench_diff: {fresh_name}: no metric changes vs baseline")
        return 0
    width = max(len(r[0]) for r in rows)
    for name, b, f, delta in rows:
        bs = "-" if b is None else f"{b:g}"
        fs = "-" if f is None else f"{f:g}"
        print(f"  {name:<{width}}  {bs:>14} -> {fs:<14} {delta:>8}")
    if gone:
        print(f"bench_diff: {len(gone)} baseline metric(s) gone from "
              f"the fresh report: {', '.join(gone)}", file=sys.stderr)
        return 2
    print(f"bench_diff: {fresh_name}: every baseline metric present; "
          f"deltas are from single runs, for information only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
