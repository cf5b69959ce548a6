"""The repository benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload serve-miss-mix --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics
from spans recorded by wrappers installed around the program's public
functions (see ``spans.py``).  Every run checks every answer.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people.  Every time is reported as it would read on a host of nominal
speed (``hostspeed.py``), from a reference loop timed between slices of
the workload.  See ``README.md`` beside this file for the workloads and
what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Seconds of one timed slice.  A run times its workload in slices with
#: a burst of the host-speed reference loop between every two, and
#: rescales each slice by the host speed measured around it
#: (``hostspeed.py``).
SLICE_S = 0.1
#: Rounds per run.  In an untraced run each round starts with a set-up
#: probe, so the set-up samples are spread over the run.
ROUNDS = 5
#: Seconds of reference loop timed just before and just after a probe.
PROBE_BURST_S = 0.2
#: Fresh processes timing ``import repro.kernels.registry``.
IMPORT_PROBES = 3

END_TO_END = {
    "ops_per_s": "1/s",
    "op_latency_p50_ms": "ms",
    "op_latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "serve.queue_wait_p50_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.coalesce_ratio": "ratio",
    "engine.calls_per_op": "count",
    "engine.rows_per_call": "count",
    "engine.call_p50_us": "us",
    "engine.self_ms_per_op": "ms",
    "engine.cache_hit_ratio": "ratio",
    "kernels.resolve_calls_per_op": "count",
    "kernels.table_hit_ratio": "ratio",
    "kernels.resolve_miss_p50_ms": "ms",
    "kernels.self_ms_per_op": "ms",
    "kernels.with_engine_ms_per_op": "ms",
    "kernels.import_s": "s",
    "trainstep.self_ms_per_op": "ms",
    "trainstep.grid_rows_per_op": "count",
    "core.self_ms_per_op": "ms",
    "inference.self_ms_per_op": "ms",
    "parallelism.self_ms_per_op": "ms",
    "parallelism.plans_per_op": "count",
    "serve.netclient.rtt_p50_ms": "ms",
    "serve.wire.self_us_per_op": "us",
    "serve.supervisor.pipe_rtt_p50_ms": "ms",
    "serve.cluster.frontend_self_ms_per_op": "ms",
    "serve.worker.self_ms_per_op": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_share": "ratio",
}


def pin_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    Measured on a 2-vCPU host (README.md, "CPU placement"): with the
    client and the cluster free to migrate, serve-tcp-hot's p99 swings
    with where the scheduler puts the processes; on one CPU the hops
    between them are plain context switches.  The same placement is
    used for every workload.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of unsorted values."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def probe_setup(workload: str, seed: int) -> float:
    """Seconds, on the nominal host, from starting a fresh interpreter
    until it could send its first timed op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", workload, "--seed", str(seed)]
    before = hostspeed.units_per_s(PROBE_BURST_S)
    start = time.monotonic()
    # A session of its own, so a probe that hangs can be stopped
    # together with the cluster it may have started.
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=workloads.program_env(), start_new_session=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.monotonic()
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        proc.stdin.close()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    after = hostspeed.units_per_s(PROBE_BURST_S)
    return (ready - start) / hostspeed.slowdown((before + after) / 2)


def run_probe(args: argparse.Namespace) -> int:
    session = workloads.WORKLOADS[args.workload](args.seed)
    try:
        session.setup()
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        session.close()
    return 0


def import_seconds() -> float:
    """Median time, on the nominal host, a fresh process takes to import
    the kernel registry."""
    code = (
        "import time, repro; t = time.perf_counter(); "
        "import repro.kernels.registry; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_PROBES):
        before = hostspeed.units_per_s(PROBE_BURST_S)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=workloads.program_env(), timeout=120, check=True,
        )
        after = hostspeed.units_per_s(PROBE_BURST_S)
        samples.append(
            float(out.stdout.strip()) / hostspeed.slowdown((before + after) / 2)
        )
    return statistics.median(samples)


class Slice:
    """One timed slice of a workload and the host's slowdown around it."""

    def __init__(self, segment: workloads.Segment, slowdown: float) -> None:
        self.segment = segment
        self.slowdown = slowdown

    @property
    def nominal_s(self) -> float:
        """The slice's wall time as it would read on the nominal host."""
        return self.segment.wall_s / self.slowdown


def run_slices(runners: Sequence[Callable[[float], workloads.Segment]],
               seconds: float) -> List[List[Slice]]:
    """Time ``seconds`` of each runner, cut into slices taken in turn
    (one slice of every runner, then the next round), with a burst of
    the reference loop between every two slices."""
    rounds = max(1, round(seconds / SLICE_S))
    out: List[List[Slice]] = [[] for _ in runners]
    before = hostspeed.units_per_s()
    for _ in range(rounds):
        for timed, runner in zip(out, runners):
            segment = runner(seconds / rounds)
            after = hostspeed.units_per_s()
            timed.append(Slice(segment, hostspeed.slowdown((before + after) / 2)))
            before = after
    return out


def ops_per_nominal_s(slices: Sequence[Slice]) -> float:
    return (sum(len(s.segment.ops) for s in slices)
            / sum(s.nominal_s for s in slices))


def end_to_end(args: argparse.Namespace) -> Tuple[Dict[str, float], int, int, int]:
    session = workloads.WORKLOADS[args.workload](args.seed)
    setups: List[float] = []
    slices: List[Slice] = []
    try:
        session.setup()
        for _ in range(ROUNDS):
            setups.append(probe_setup(args.workload, args.seed))
            session.warm()
            slices += run_slices([session.run], args.seconds / ROUNDS)[0]
            # Checking between rounds also spreads them over the run.
            checked, wrong = session.verify()
        rss = sum(peak_rss_mib(pid) for pid in session.pids())
    finally:
        session.close()
    latencies = [
        (end - start) / s.slowdown for s in slices for start, end in s.segment.ops
    ]
    wall = sum(s.segment.wall_s for s in slices)
    metrics = {
        "ops_per_s": ops_per_nominal_s(slices),
        "op_latency_p50_ms": percentile(latencies, 50) * 1e3,
        "op_latency_p99_ms": percentile(latencies, 99) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    slowdowns = [s.slowdown for s in slices]
    print(f"{args.workload}: {len(latencies)} ops in {wall:.3f} s over "
          f"{len(slices)} slices, {len(latencies) / wall:.2f} ops/s as timed; "
          f"host slowdown {min(slowdowns):.2f}..{max(slowdowns):.2f} "
          f"(median {statistics.median(slowdowns):.2f})")
    print(f"set-up samples (nominal s): {[round(s, 3) for s in setups]}")
    print(f"checked {checked} answers: {wrong} wrong")
    attempted = sum(s.segment.attempted for s in slices)
    failed = sum(s.segment.failed for s in slices)
    return metrics, attempted, failed, wrong


def per_layer(args: argparse.Namespace) -> Tuple[Dict[str, float], int, int, int]:
    from repro.engine.core import default_engine

    trace_root = os.path.join(workloads.ROOT, ".perfbench-run")
    trace_dir = os.path.join(trace_root, str(os.getpid()))
    os.makedirs(trace_dir)
    cls = workloads.WORKLOADS[args.workload]
    remote = args.workload == "serve-tcp-hot"
    plain = cls(args.seed)
    # In-process workloads toggle the wrappers on one session; the TCP
    # workload needs a second cluster whose processes record spans.
    traced = cls(args.seed, trace_dir=trace_dir) if remote else plain
    sessions = [plain, traced] if remote else [plain]
    recorder = spans.Recorder()
    counts = {"hits": 0, "lookups": 0, "dispatched": 0, "calls": 0}

    def traced_run(seconds: float) -> workloads.Segment:
        before_cache = default_engine().memory_stats.snapshot()
        before_serve = traced.serve_counters()
        recorder.install("bench")
        try:
            segment = traced.run(seconds)
        finally:
            recorder.uninstall()
        delta = default_engine().memory_stats.delta(before_cache)
        after_serve = traced.serve_counters()
        counts["hits"] += delta.hits
        counts["lookups"] += delta.lookups
        counts["dispatched"] += after_serve[0] - before_serve[0]
        counts["calls"] += after_serve[1] - before_serve[1]
        return segment

    untraced_slices: List[Slice] = []
    traced_slices: List[Slice] = []
    try:
        for session in sessions:
            session.setup()
        # Untraced and traced slices alternate, so both see the same host.
        for _ in range(ROUNDS):
            for session in sessions:
                session.warm()
            untimed, timed = run_slices([plain.run, traced_run],
                                        args.seconds / (2 * ROUNDS))
            untraced_slices += untimed
            traced_slices += timed
        verified = [session.verify() for session in sessions]
        checked = sum(c for c, _w in verified)
        wrong = sum(w for _c, w in verified)
    finally:
        for session in sessions:
            session.close()
    try:
        dumps = spans.load_dumps(trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(trace_root)  # unless another run still uses it
    traced_segs = [s.segment for s in traced_slices]
    # Span times are rescaled to the nominal host by the traced slices'
    # mean slowdown.
    slowdown = (sum(seg.wall_s for seg in traced_segs)
                / sum(s.nominal_s for s in traced_slices))
    windows = [(seg.start, seg.end) for seg in traced_segs]
    span_set = spans.SpanSet(dumps + [recorder.spans], windows)

    ops = [op for seg in traced_segs for op in seg.ops]
    n = max(1, len(ops))
    batched = [b for seg in traced_segs for b in seg.batched]
    evaluate_rows = span_set.notes("ShapeEngine.evaluate")
    resolves = span_set.notes("KernelParamResolver.resolve")
    waits = [wait for wait, _size in batched]
    batches = [size for _wait, size in batched]

    def ms_per_op(layer: str) -> float:
        return span_set.self_s(layer) * 1e3 / n

    metrics = {
        "serve.queue_wait_p50_ms": spans.median(waits) * 1e3,
        "serve.batch_size_mean": statistics.fmean(batches) if batches else 0.0,
        "serve.coalesce_ratio": (
            counts["dispatched"] / counts["calls"] if counts["calls"] else 0.0
        ),
        "engine.calls_per_op": len(evaluate_rows) / n,
        "engine.rows_per_call": (
            statistics.fmean(evaluate_rows) if evaluate_rows else 0.0
        ),
        "engine.call_p50_us": (
            spans.median(span_set.durations("ShapeEngine.evaluate")) * 1e6
        ),
        "engine.self_ms_per_op": ms_per_op("engine"),
        "engine.cache_hit_ratio": (
            counts["hits"] / counts["lookups"] if counts["lookups"] else 0.0
        ),
        "kernels.resolve_calls_per_op": len(resolves) / n,
        "kernels.table_hit_ratio": (
            sum(resolves) / len(resolves) if resolves else 0.0
        ),
        "kernels.resolve_miss_p50_ms": (
            spans.median(span_set.durations("best_for_shape")) * 1e3
        ),
        "kernels.self_ms_per_op": ms_per_op("kernels"),
        "kernels.with_engine_ms_per_op": (
            span_set.with_engine_s("kernels") * 1e3 / n
        ),
        "kernels.import_s": import_seconds(),
        "trainstep.self_ms_per_op": ms_per_op("trainstep"),
        "trainstep.grid_rows_per_op": (
            sum(span_set.notes("training_grid")) / n
        ),
        "core.self_ms_per_op": ms_per_op("core"),
        "inference.self_ms_per_op": ms_per_op("inference"),
        "parallelism.self_ms_per_op": ms_per_op("parallelism"),
        "parallelism.plans_per_op": (
            sum(span_set.notes("ParallelPlanner.plan")) / n
        ),
        "serve.netclient.rtt_p50_ms": (
            spans.median(span_set.durations("SocketTransport.request")) * 1e3
        ),
        "serve.wire.self_us_per_op": span_set.self_s("serve.wire") * 1e6 / n,
        "serve.supervisor.pipe_rtt_p50_ms": (
            spans.median(span_set.durations("Supervisor.request")) * 1e3
        ),
        "serve.cluster.frontend_self_ms_per_op": ms_per_op("serve.cluster"),
        "serve.worker.self_ms_per_op": ms_per_op("serve.worker"),
        "trace.overhead_ratio": (
            ops_per_nominal_s(untraced_slices) / ops_per_nominal_s(traced_slices)
        ),
        "trace.attributed_share": span_set.covered_share(ops),
    }
    for name, unit in PER_LAYER.items():
        # Times taken in the traced slices (``kernels.import_s`` is
        # rescaled already).
        if unit in ("ms", "us"):
            metrics[name] /= slowdown
    wall_ms = sum(end - start for start, end in ops) * 1e3 / n / slowdown
    print(f"{args.workload} traced: {len(ops)} ops, {wall_ms:.3f} ms per op; "
          f"host slowdown {slowdown:.2f}; nominal ms per op by layer "
          f"(self; with the engine calls it made):")
    budget = sorted(span_set.layer_budget().items(), key=lambda kv: -kv[1][0])
    for layer, (self_s, with_engine_s) in budget:
        print(f"  {layer:<18} {self_s * 1e3 / n / slowdown:9.4f} "
              f"{with_engine_s * 1e3 / n / slowdown:9.4f}")
    print(f"checked {checked} answers: {wrong} wrong")
    segments = [s.segment for s in untraced_slices + traced_slices]
    attempted = sum(seg.attempted for seg in segments)
    failed = sum(seg.failed for seg in segments)
    return metrics, attempted, failed, wrong


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready', tear down on stdin EOF")
    parser.add_argument("--verify", action="store_true",
                        help="check serve answers sent on stdin")
    args = parser.parse_args(argv)

    if not (workloads.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {workloads.SRC}", file=sys.stderr)
        return 2
    env = workloads.program_env()
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(workloads.SRC))
    if args.verify:
        return workloads.verifier_main(sys.stdin)
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe:
        return run_probe(args)
    pin_cpu()

    if args.trace:
        metrics, attempted, failed, wrong = per_layer(args)
        units = PER_LAYER
    else:
        metrics, attempted, failed, wrong = end_to_end(args)
        units = END_TO_END
    result = {
        "correct": wrong == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(f"counts: attempted={attempted} failed={failed} wrong={wrong}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
