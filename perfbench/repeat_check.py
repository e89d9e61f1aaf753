"""Exact-repeat check: two runs at one seed give identical counts.

Usage, from the root of a checkout::

    python3 perfbench/repeat_check.py --workload trips_kleene --seed 42

Runs the benchmark twice with the same arguments and compares the
deterministic counts each run records per sub-stream: the sequential
engine's comparisons, partial matches created, peak and purged partials and
match count, and the simulator's model throughput, model comparisons and
match count.  Wall-clock figures may differ between the runs; these counts
may not, so a change that alters the model or the engine's work shows here
even when its timings hide it.  Exits nonzero on any difference or when a
run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def counts_of(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"benchmark run failed with exit code "
                         f"{done.returncode}")
    for line in done.stdout.splitlines():
        if line.startswith("perfbench-record "):
            return json.loads(line.split(" ", 1)[1])["counts"]
    raise SystemExit("benchmark run printed no record")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=3)
    args = parser.parse_args(argv)
    first = counts_of(args.workload, args.seed, args.seconds)
    second = counts_of(args.workload, args.seed, args.seconds)
    if first != second:
        for path in sorted(set(first) | set(second)):
            if first.get(path) != second.get(path):
                print(f"{path}: counts differ between runs:\n"
                      f"  {first.get(path)}\n  {second.get(path)}")
        return 1
    paths = ", ".join(sorted(first))
    print(f"{args.workload} seed {args.seed}: counts repeat exactly "
          f"({paths})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
