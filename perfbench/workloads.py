"""The benchmark's three workloads, each a closed loop driven from one process.

Every workload is a session with the same life cycle:

- ``setup()`` does everything a user's process does before its first
  op (imports, server or cluster start, one op of each kind so lazy
  loads are done); it is what ``setup_s`` times;
- ``warm()`` fills the caches the timed ops read from (the working set
  of serve-tcp-hot and price-sweep), untimed and outside ``setup_s``;
- ``run(seconds)`` drives ops for that long and returns a
  :class:`Segment` of per-op start/end times;
- ``verify()`` checks every answer given since the last call and
  returns the running totals ``(checked, wrong)``;
- ``pids()`` names the processes whose peak RSS the run reports;
- ``close()`` stops everything the session started.

Inputs derive from the seed alone; the program only sees the generated
queries and configs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import traceback
from functools import partial
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
RUN = Path(__file__).resolve().parent / "run.py"
#: The checked-in golden kernel tables serve ``kernel_params`` queries.
KERNEL_TABLES = ROOT / "tests" / "golden" / "kernels"

GPUS = ("A100", "H100")
#: loadgen's default share of ``kernel_params`` requests.
KERNEL_SHARE = 0.25
SHAPE_KINDS = ("latency", "tflops", "evaluate")


def program_env() -> Dict[str, str]:
    """Environment for this process and every process it starts."""
    env = dict(os.environ)
    paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in paths if p != str(SRC)])
    env["REPRO_KERNEL_TABLES"] = str(KERNEL_TABLES)
    # Memory-only engine cache: no state survives between runs.
    env.pop("REPRO_ENGINE_CACHE_DIR", None)
    return env


class Segment:
    """One timed stretch of a closed loop."""

    def __init__(self, start: float) -> None:
        self.start = start
        self.end = start
        #: (sent, answered) monotonic seconds per completed op.
        self.ops: List[Tuple[float, float]] = []
        self.failed = 0
        #: (queue wait s, batch size) of answers that went through a batch.
        self.batched: List[Tuple[float, int]] = []

    def answered(self, sent: float, answered: float, advisory: Any) -> None:
        self.ops.append((sent, answered))
        if advisory.batch_size > 0:
            self.batched.append((advisory.queue_wait_s, advisory.batch_size))

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.failed

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def check_answers(
    pairs: Sequence[Tuple[Any, Any]], first: Dict[Any, Tuple[Any, bool]]
) -> int:
    """Wrong answers among ``(query, advisory)`` pairs of ok advisories.

    The first answer to each distinct query is re-computed bit for bit
    by ``verify_against_engine`` (a fresh engine and kernel resolver);
    every later answer to that query must carry exactly the same
    payload, and is wrong if the first one was.  ``first`` carries
    ``key -> (payload, correct)`` from one call to the next.
    """
    from repro.serve.loadgen import verify_against_engine

    new: Dict[Any, Tuple[Any, Any]] = {}
    for query, advisory in pairs:
        key = query.cache_key()
        if key not in first:
            new.setdefault(key, (query, advisory))
    if new:
        _checked, wrong = verify_against_engine(list(new.values()))
        for key, pair in new.items():
            # On a mismatch, find which answers were wrong one by one.
            ok = wrong == 0 or verify_against_engine([pair])[1] == 0
            first[key] = (pair[1].payload, ok)
    return sum(
        1 for query, advisory in pairs
        if not (first[query.cache_key()][1]
                and advisory.payload == first[query.cache_key()][0])
    )


def verifier_main(lines: Iterable[str]) -> int:
    """The verifier process: pairs in as JSON lines, a ``check`` line
    asks for the number of wrong ones among those sent since the last."""
    from repro.serve.protocol import Advisory, ShapeQuery

    first: Dict[Any, Tuple[Any, bool]] = {}
    batch: List[Tuple[Any, Any]] = []
    for line in lines:
        if line.strip() == "check":
            print(check_answers(batch, first), flush=True)
            batch = []
        else:
            query, advisory = json.loads(line)
            batch.append((ShapeQuery.from_dict(query), Advisory.from_dict(advisory)))
    return 0


class Verifier:
    """Checks serve answers in a child process, so neither the answers
    kept for checking nor the fresh engine that checks them count
    towards the measured process tree's memory."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(RUN), "--verify"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=program_env(),
        )
        self.checked = 0
        self.wrong = 0

    def check(self, pairs: Sequence[Tuple[Any, Any]]) -> None:
        """Check ``(query, advisory)`` pairs of ok answers."""
        for query, advisory in pairs:
            self.proc.stdin.write(
                json.dumps([query.to_dict(), advisory.to_dict()]) + "\n"
            )
        self.proc.stdin.write("check\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"verifier exited {self.proc.wait()}")
        self.checked += len(pairs)
        self.wrong += int(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def fresh_queries(rng: random.Random) -> Iterator[Any]:
    """Shape queries whose (batch, m, n, k) never repeats.

    Shapes are drawn as ``repro.serve.loadgen.generate_queries`` draws
    them (its dimension pool and batch mix, batches up to 8); that pool
    holds about 97 000 distinct shapes, far more than a run asks for.
    Exactly one query in each block of four, at a seeded place, asks
    ``kernel_params`` (loadgen's default share), so the costly kernel
    misses make the same share of every run instead of a share that
    varies with the seed.
    """
    from repro.serve.loadgen import _DIM_POOL
    from repro.serve.protocol import ShapeQuery

    per_kernel = round(1 / KERNEL_SHARE)
    seen = set()
    while True:
        kernel_at = rng.randrange(per_kernel)
        for i in range(per_kernel):
            while True:
                shape = (
                    rng.choice((1, 1, 1, 2, 4, rng.randint(1, 8))),
                    rng.choice(_DIM_POOL), rng.choice(_DIM_POOL),
                    rng.choice(_DIM_POOL),
                )
                if shape not in seen:
                    break
            seen.add(shape)
            kind = "kernel_params" if i == kernel_at else rng.choice(SHAPE_KINDS)
            batch, m, n, k = shape
            yield ShapeQuery(kind=kind, m=m, n=n, k=k, batch=batch,
                             gpu=rng.choice(GPUS))


def _ok(advisory: Any) -> Any:
    """A warm-up answer, which must not fail: set-up would be broken."""
    if not advisory.ok:
        raise RuntimeError(f"warm-up query failed: {advisory.error}")
    return advisory


def _verify_served(self: Any) -> Tuple[int, int]:
    """Check the answers since the last call; cumulative (checked, wrong)."""
    if self.verifier is None:
        self.verifier = Verifier()
    self.verifier.check(self.unchecked)
    self.unchecked = []
    return self.verifier.checked, self.verifier.wrong


class ServeMissMix:
    """In-process ``AdvisoryServer``; every request is a new shape."""

    #: Requests the client keeps outstanding: as many as
    #: ``repro.serve.loadgen.run_load`` keeps in flight by default (its
    #: 8 client threads, each waiting for its answer).
    WINDOW = 8

    def __init__(self, seed: int, trace_dir: Optional[str] = None) -> None:
        self.seed = seed
        self.unchecked: List[Tuple[Any, Any]] = []
        self.verifier: Optional[Verifier] = None
        self.server: Any = None

    def setup(self) -> None:
        from repro.serve import AdvisoryServer, ServeConfig

        self.server = AdvisoryServer(ServeConfig()).start()
        self.stream = fresh_queries(random.Random(self.seed))
        # Warm-up: one of each kind on each GPU, so the lazy kernel
        # resolver is built before timing starts.
        for kind in ("kernel_params",) + SHAPE_KINDS:
            for gpu in GPUS:
                q = dataclasses.replace(next(self.stream), kind=kind, gpu=gpu)
                self.unchecked.append((q, _ok(self.server.request(q, timeout_s=60))))

    def warm(self) -> None:
        """Nothing to warm: every timed request is new."""

    def run(self, seconds: float) -> Segment:
        from repro.errors import ReproError

        cond = threading.Condition()
        inflight = [0]
        records: List[List[Any]] = []

        def done(rec: List[Any], fut: Any) -> None:
            rec[2] = time.monotonic()
            rec[3] = fut.result()
            with cond:
                inflight[0] -= 1
                cond.notify()

        seg = Segment(time.monotonic())
        stop = seg.start + seconds
        while True:
            with cond:
                while inflight[0] >= self.WINDOW:
                    cond.wait()
                if time.monotonic() >= stop:
                    break
                inflight[0] += 1
            query = next(self.stream)
            rec = [query, time.monotonic(), None, None]
            records.append(rec)
            try:
                self.server.submit(query).add_done_callback(partial(done, rec))
            except ReproError as exc:  # typed rejection: a failed op
                rec[2], rec[3] = time.monotonic(), exc
                with cond:
                    inflight[0] -= 1
        with cond:
            while inflight[0]:
                cond.wait()
        for query, sent, answered, advisory in records:
            if getattr(advisory, "ok", False):
                seg.answered(sent, answered, advisory)
                self.unchecked.append((query, advisory))
            else:
                seg.failed += 1
            seg.end = max(seg.end, answered)
        return seg

    def serve_counters(self) -> Tuple[int, int]:
        stats = self.server.stats()
        return stats.shape_dispatched, stats.engine_calls

    verify = _verify_served

    def pids(self) -> List[int]:
        return [os.getpid()]

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        if self.verifier is not None:
            self.verifier.close()


def _children(pid: int) -> List[int]:
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == pid:
                out.append(int(entry))
    return out


class ServeTcpHot:
    """``repro serve --listen`` with one worker, one TCP connection,
    every answer a worker-cache hit."""

    UNIQUE = 48
    STREAM = 30000

    def __init__(self, seed: int, trace_dir: Optional[str] = None) -> None:
        self.seed = seed
        self.trace_dir = trace_dir
        self.unchecked: List[Tuple[Any, Any]] = []
        self.verifier: Optional[Verifier] = None
        self.proc: Optional["subprocess.Popen[str]"] = None
        self.worker_pids: List[int] = []
        self._next = 0

    def setup(self) -> None:
        from repro.serve import SocketTransport, generate_queries

        cmd = [sys.executable, str(LAUNCH)]
        if self.trace_dir:
            cmd += ["--trace-out", self.trace_dir]
        cmd += ["--", "serve", "--listen", "127.0.0.1:0", "--workers", "1"]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env=program_env(),
        )
        port = None
        for line in self.proc.stderr:
            if line.startswith("cluster: listening on "):
                port = int(line.split()[3].rsplit(":", 1)[1])
                break
        if port is None:
            raise RuntimeError(f"cluster exited {self.proc.wait()} before listening")
        # Pass the cluster's later messages (and any traceback) on.
        threading.Thread(
            target=sys.stderr.writelines, args=(self.proc.stderr,),
            name="cluster-stderr", daemon=True,
        ).start()
        self.worker_pids = _children(self.proc.pid)
        self.transport = SocketTransport(host="127.0.0.1", port=port)
        self.stream = generate_queries(
            self.STREAM, seed=self.seed, unique=self.UNIQUE, gpus=GPUS,
            kernel_share=KERNEL_SHARE,
        )
        self.distinct = list({q.cache_key(): q for q in self.stream}.values())
        # One query of each kind on each GPU, so the worker's lazy loads
        # are done, as serve-miss-mix does in its set-up.
        for q in {(q.kind, q.gpu): q for q in reversed(self.distinct)}.values():
            self.unchecked.append((q, _ok(self.transport.request(q, timeout_s=60))))

    def warm(self) -> None:
        """Ask every distinct query once, so timed answers are cache hits.

        Asked again before each round of a run, so no answer falls out
        of the worker's 60 s response cache."""
        for q in self.distinct:
            self.unchecked.append((q, _ok(self.transport.request(q, timeout_s=60))))

    def run(self, seconds: float) -> Segment:
        from repro.errors import ReproError

        seg = Segment(time.monotonic())
        stop = seg.start + seconds
        stream, n = self.stream, len(self.stream)
        while True:
            sent = time.monotonic()
            if sent >= stop:
                break
            query = stream[self._next % n]
            self._next += 1
            try:
                advisory = self.transport.request(query, timeout_s=30)
            except ReproError:
                advisory = None
            answered = time.monotonic()
            seg.end = answered
            if advisory is not None and advisory.ok:
                seg.answered(sent, answered, advisory)
                self.unchecked.append((query, advisory))
            else:
                seg.failed += 1
        return seg

    def serve_counters(self) -> Tuple[int, int]:
        workers = self.transport.server_stats().get("workers", {})
        return int(workers.get("shape_dispatched", 0)), int(workers.get("engine_calls", 0))

    verify = _verify_served

    def pids(self) -> List[int]:
        return [os.getpid(), self.proc.pid] + self.worker_pids

    def close(self) -> None:
        if self.verifier is not None:
            self.verifier.close()
            self.verifier = None
        if self.proc is None:
            return
        transport = getattr(self, "transport", None)
        if transport is not None:
            transport.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        for pid in self.worker_pids:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.02)
            if os.path.exists(f"/proc/{pid}"):
                os.kill(pid, signal.SIGKILL)
        self.proc = None


class PriceSweep:
    """The co-design loop: price perturbed presets with every pricer.

    A candidate is a preset with its head dim moved by one of
    ``HEAD_DIM_STEPS`` and its vocab by up to ``VOCAB_SPREAD``.  Set-up
    builds the pricers and prices one candidate on each GPU, so every
    lazy load is done.  ``warm()`` then prices every (preset, head dim)
    once on each GPU and system, so the process-wide GEMM memo holds
    every layer shape before timing starts; that fills the memo the
    timed ops draw from and is not part of set-up.  The vocab, drawn
    afresh for each op, keeps the logit GEMM, the training grid and the
    plans new.  The timed loop is therefore in a steady state: its cost
    per op and its memory do not drift with the number of ops already
    run.
    """

    NUM_GPUS = 16
    HEAD_DIM_STEPS = (-16, -8, 0, 8, 16)
    VOCAB_SPREAD = 256
    #: Relative tolerance for "equal" sums of the same float terms
    #: added in a different order.
    REL_TOL = 1e-12

    def __init__(self, seed: int, trace_dir: Optional[str] = None) -> None:
        self.seed = seed
        self.wrong = 0
        self.checked = 0
        self.warmed = False

    def setup(self) -> None:
        from repro.core.config import list_models
        from repro.core.latency import LayerLatencyModel
        from repro.inference.latency import InferenceModel
        from repro.parallelism.topology import list_systems
        from repro.trainstep import TrainStepEstimator

        self.shapes = [
            (base, max(16, base.head_dim + step))
            for base in list_models() for step in self.HEAD_DIM_STEPS
        ]
        self.systems = [s.name for s in list_systems()]
        self.estimators = {g: TrainStepEstimator(g) for g in GPUS}
        self.latency = {g: LayerLatencyModel(g) for g in GPUS}
        self.inference = {g: InferenceModel(g) for g in GPUS}
        self.stream = self._candidates(random.Random(self.seed))
        for gpu in GPUS:
            cfg, _gpu, system = next(self.stream)
            self._check(*self._price(cfg, gpu, system))

    def warm(self) -> None:
        """Price every (preset, head dim) on each GPU and system, once."""
        if self.warmed:
            return
        for base, head_dim in self.shapes:
            cfg = self._config(base, head_dim, base.vocab_size)
            for i, system in enumerate(self.systems):
                self._check(*self._price(cfg, GPUS[i % len(GPUS)], system))
        self.warmed = True

    @staticmethod
    def _config(base: Any, head_dim: int, vocab: int) -> Any:
        return base.with_overrides(
            name=f"{base.name}~d{head_dim}v{vocab}",
            hidden_size=base.num_heads * head_dim,
            vocab_size=vocab,
        )

    def _candidates(self, rng: random.Random) -> Iterator[Tuple[Any, str, str]]:
        """Every (preset, head dim) once per cycle, in a seeded order, so
        the mix of cheap and costly presets is the same in every run."""
        while True:
            for base, head_dim in rng.sample(self.shapes, len(self.shapes)):
                vocab = base.vocab_size + rng.randint(-self.VOCAB_SPREAD,
                                                      self.VOCAB_SPREAD)
                yield (self._config(base, head_dim, vocab), rng.choice(GPUS),
                       rng.choice(self.systems))

    def _price(self, cfg: Any, gpu: str, system: str) -> Tuple[Any, ...]:
        from repro.parallelism.planner import ParallelPlanner

        estimate = self.estimators[gpu].estimate(cfg)
        forward = self.latency[gpu].model_breakdown(cfg)
        model = self.inference[gpu]
        prefill = model.prefill(cfg)
        decode = model.decode_step(cfg, context_len=cfg.seq_len)
        # A planner per op, as a sweep script would make one: a shared
        # one would keep every candidate's layer costs for the whole run.
        plans = ParallelPlanner(system).plan(cfg, self.NUM_GPUS)
        return estimate, forward, prefill, decode, plans

    def _check(self, estimate: Any, forward: Any, prefill: Any, decode: Any,
               plans: Sequence[Any]) -> None:
        def close(a: float, b: float) -> bool:
            return abs(a - b) <= self.REL_TOL * max(abs(a), abs(b))

        gemm_phases = [p for p in estimate.phases if p.phase != "optimizer"]
        ok = (
            close(sum(p.seconds for p in estimate.phases), estimate.total_s)
            and close(sum(m.total_s for m in estimate.modules),
                      sum(p.seconds for p in gemm_phases))
            and sum(m.flops for m in estimate.modules)
            == sum(p.flops for p in gemm_phases)
            and close(estimate.phase("forward").seconds, forward.gemm_s)
            and prefill.latency_s > 0
            and decode.latency_s > 0
            and all(a.iteration_time_s <= b.iteration_time_s
                    for a, b in zip(plans, plans[1:]))
            and all(plan.fits_memory for plan in plans)
        )
        self.checked += 1
        self.wrong += not ok

    def run(self, seconds: float) -> Segment:
        seg = Segment(time.monotonic())
        stop = seg.start + seconds
        while True:
            sent = time.monotonic()
            if sent >= stop:
                break
            try:
                result = self._price(*next(self.stream))
            except Exception:  # a pricer that raises is a failed op
                traceback.print_exc()
                seg.failed += 1
                seg.end = time.monotonic()
                continue
            answered = time.monotonic()
            seg.ops.append((sent, answered))
            seg.end = answered
            self._check(*result)
        return seg

    def serve_counters(self) -> Tuple[int, int]:
        return 0, 0

    def verify(self) -> Tuple[int, int]:
        return self.checked, self.wrong

    def pids(self) -> List[int]:
        return [os.getpid()]

    def close(self) -> None:
        pass


WORKLOADS = {
    "serve-miss-mix": ServeMissMix,
    "serve-tcp-hot": ServeTcpHot,
    "price-sweep": PriceSweep,
}
