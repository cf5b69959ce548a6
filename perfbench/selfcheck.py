"""Self-check of the benchmark against its own ``BENCHMARK.json``.

    python3 perfbench/selfcheck.py [--seconds 2]

For every workload it makes one short untraced run and one short traced
run, and checks that each run:

- ends with one JSON object with exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``;
- passes its correctness gate (``correct`` true, no failed op);
- prints every end-to-end (untraced) or per-layer (traced) metric named
  in ``BENCHMARK.json``, and no other, each with the unit given there;
- reports end-to-end values that are positive numbers.

It also checks that the benchmark exits with a non-zero code and prints
no result in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.  Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(workload: str, trace: int, seconds: float,
              expected: Dict[str, str], positive: bool) -> List[str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=180)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}: {out.stderr.strip()[-300:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correctness gate failed: "
                        f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        value = metric.get("value")
        if metric.get("unit") != unit:
            problems.append(f"{where}: {name} unit {metric.get('unit')!r} != {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
        elif positive and value <= 0:
            problems.append(f"{where}: {name} = {value} is not positive")
    print(f"{where}: {'ok' if not problems else 'FAILED'}", flush=True)
    return problems


def check_without_program(bench_file: str) -> List[str]:
    """The benchmark alone, without the program, must fail cleanly."""
    bare = os.path.join(ROOT, ".perfbench-run", f"selfcheck-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(bench_file, bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "price-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    problems = []
    if out.returncode == 0:
        problems.append("without the program: exit 0")
    if out.stdout.strip():
        problems.append(f"without the program: printed {out.stdout.strip()[:200]!r}")
    print(f"without the program: {'ok' if not problems else 'FAILED'}")
    return problems


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/selfcheck.py")
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    with open(bench_file) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        problems += check_run(workload, 0, args.seconds, end_to_end, True)
        problems += check_run(workload, 1, args.seconds, per_layer, False)
    problems += check_without_program(bench_file)
    for problem in problems:
        print("  " + problem)
    print("selfcheck: " + ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
