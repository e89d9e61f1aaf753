"""Compare two sets of benchmark records, metric by metric.

Usage, from the root of a checkout::

    python3 perfbench/compare.py --base base-*.json --change change-*.json

Each file is a record written by ``run.py --out``.  Records made on hosts
with different fingerprints (core count, CPU model, Python and numpy
versions, procs start method) are refused: their numbers are not
comparable.  For every workload and end-to-end metric the report gives each
side's median and quartiles and flags a regression when the change's median
is worse than the base median by more than the metric's bound in
``BENCHMARK.json``; a metric whose base spread exceeds its bound is reported
as unresolved.  The exit code is 2 on a fingerprint mismatch, 1 on a
regression and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in base + change}
    if len(prints) > 1:
        print("refusing to compare records from different hosts:",
              file=sys.stderr)
        for fingerprint in sorted(prints):
            print(f"  {fingerprint}", file=sys.stderr)
        return 2
    declared_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(declared_path, encoding="utf-8") as handle:
        declared = json.load(handle)
    regressions = 0
    workloads = sorted({r["workload"] for r in base + change})
    for workload in workloads:
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sides = [
                [r["metrics"][name]["value"] for r in records
                 if r["workload"] == workload and name in r["metrics"]]
                for records in (base, change)
            ]
            if not sides[0] or not sides[1]:
                continue
            (b1, bm, b3), (c1, cm, c3) = map(quartiles, sides)
            worse = (cm - bm) / bm if metric["better"] == "lower" \
                else (bm - cm) / bm
            if (b3 - b1) / bm > bound:
                verdict = "unresolved (base spread above bound)"
            elif worse > bound:
                verdict = f"REGRESSION ({worse:.1%} worse, bound {bound:.0%})"
                regressions += 1
            else:
                verdict = f"ok ({-worse:+.1%})"
            print(f"{workload} {name}: base {bm:.4g} [{b1:.4g}, {b3:.4g}]"
                  f"  change {cm:.4g} [{c1:.4g}, {c3:.4g}]  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
