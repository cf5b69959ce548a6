"""Run the benchmark repeatedly and report how far each metric spreads.

    python3 perfbench/steadiness.py --workload price-sweep --runs 10 --out set1.json
    python3 perfbench/steadiness.py --workload price-sweep --runs 10 --against set1.json

Each run uses another seed.  For every end-to-end metric the report
gives the median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound in ``BENCHMARK.json``.  A metric is steady when
its spread is under a third of its bound; ``setup_s`` is judged like
every other metric.  With ``--against`` a set of runs saved earlier by
``--out`` is the first set, and each metric's median must also not be
worse than that set's median by more than the bound.  Exits 0 when
every run is correct and every metric passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steadiness.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="save the values of every run here")
    parser.add_argument("--against", help="values saved by an earlier --out")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    values: Dict[str, List[float]] = {name: [] for name in bounds}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        failures += (not result["correct"]) + result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed} ({time.monotonic() - started:.0f} s): " + " ".join(
            f"{name}={result['metrics'][name]['value']:.4g}" for name in values
        ), flush=True)
        # The run's own summary: throughput as timed and the host's slowdown.
        print("    " + out.stdout.splitlines()[0], flush=True)

    print(f"{args.workload}: {args.runs} runs of {seconds:g} s, "
          f"{failures} incorrect or failed")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(values, fh)
    first = None
    if args.against:
        with open(args.against) as fh:
            first = json.load(fh)
    steady = failures == 0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        ok = spread < bounds[name] / 3
        line = (f"  {name:<20} median {med:10.4f}  IQR/median {spread:6.3f}  "
                f"bound {bounds[name]:.2f}  {'ok' if ok else 'WIDE'}")
        if first is not None:
            before = statistics.median(first[name])
            worse = (med / before - 1) if lower[name] else (1 - med / before)
            ok &= worse <= bounds[name]
            line += (f"  first set {before:10.4f}  worse by {worse:+.3f}  "
                     f"{'ok' if worse <= bounds[name] else 'SHIFTED'}")
        steady &= ok
        print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
