"""Span recording for the benchmark's traced runs.

The recorder wraps public functions of the ``repro`` modules from the
outside: nothing under ``src/`` knows it is being measured.  Each call
through a wrapper becomes one span ``(layer, name, start, end, self,
thread, remote, note)`` kept in memory and written out when the process
ends (:meth:`Recorder.dump`).

Times come from ``time.monotonic`` (``CLOCK_MONOTONIC``), which is one
clock for every process on the host, so spans from the benchmark, the
cluster front-end and its worker line up on a single timeline.

Self time is the span's duration minus the time its child spans in the
same thread cover.  A *remote* span waits for work done elsewhere (the
TCP round-trip, the supervisor's pipe hop, the front-end's executor
hop): its self time is computed at aggregation as its duration minus
the union of every other span, from any thread or process, that lies
inside it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import threading
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (layer, name, start, end, self seconds, thread id, remote, note,
#: caller: the layer of the nearest enclosing span of another layer in
#: this thread, or "")
Span = Tuple[str, str, float, float, float, int, bool, Any, bool]

# What each layer wraps: (module, class or None, attribute, remote, note).
# A note turns (args, result) into a count recorded on the span.


def _rows(args: Sequence[Any], _result: Any) -> int:
    return len(args[1])


def _len_result(_args: Sequence[Any], result: Any) -> int:
    return len(result)


def _table_hit(_args: Sequence[Any], result: Any) -> int:
    return int(bool(result.get("table_hit")))


_SERVE = [
    ("repro.serve.server", "AdvisoryServer", "submit", False, None),
    ("repro.serve.server", "AdvisoryServer", "_dispatch", False, None),
]

_WORKER = [
    ("repro.serve.worker", "WorkerLoop", "_handle_query", False, None),
    ("repro.serve.worker", "WorkerLoop", "_finish", False, None),
]

LAYERS: Dict[str, List[Tuple[str, Optional[str], str, bool, Any]]] = {
    "engine": [
        ("repro.engine.core", "ShapeEngine", "evaluate", False, _rows),
        ("repro.engine.core", "ShapeEngine", "evaluate_grid", False, None),
        ("repro.engine.core", "ShapeEngine", "evaluate_tiles", False, None),
    ],
    "kernels": [
        ("repro.kernels.registry", "KernelParamResolver", "resolve", False,
         _table_hit),
        ("repro.kernels.search", None, "best_for_shape", False, None),
    ],
    "trainstep": [
        ("repro.trainstep.step", "TrainStepEstimator", "estimate", False, None),
        ("repro.trainstep.step", None, "training_grid", False, _len_result),
        ("repro.trainstep.memory", None, "estimate_memory", False, None),
    ],
    "core": [
        ("repro.core.latency", "LayerLatencyModel", name, False, None)
        for name in ("layer_breakdown", "layer_latency", "model_breakdown",
                     "model_latency")
    ],
    "inference": [
        ("repro.inference.latency", "InferenceModel", "prefill", False, None),
        ("repro.inference.latency", "InferenceModel", "decode_step", False,
         None),
    ],
    "parallelism": [
        ("repro.parallelism.planner", "ParallelPlanner", "plan", False,
         _len_result),
        ("repro.parallelism.planner", "ParallelPlanner", "evaluate", False,
         None),
        ("repro.parallelism.tensor_parallel", "TensorParallelLayer",
         "layer_cost", False, None),
    ],
    "serve": _SERVE,
    "serve.worker": _SERVE + _WORKER,
    "serve.wire": [
        ("repro.serve.wire", None, "encode_message", False, None),
        ("repro.serve.wire", None, "decode_line", False, None),
    ],
    "serve.netclient": [
        ("repro.serve.netclient", "SocketTransport", "request", True, None),
    ],
    "serve.supervisor": [
        ("repro.serve.supervisor", "Supervisor", "request", True, None),
    ],
    "serve.cluster": [
        ("repro.serve.cluster", "ClusterServer", "_answer", True, None),
    ],
}

#: Layers installed in each process role.  The worker's embedded
#: server is its own layer, so the in-process ``serve`` layer and the
#: worker behind the pipe are never summed together.
ROLES = {
    "bench": ("engine", "kernels", "trainstep", "core", "inference",
              "parallelism", "serve", "serve.wire", "serve.netclient"),
    "frontend": ("serve.wire", "serve.supervisor", "serve.cluster"),
    "worker": ("engine", "kernels", "serve.worker", "serve.wire"),
}


class Recorder:
    """Collects spans from wrapped functions, per process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(
        self, fn: Callable[..., Any], layer: str, name: str, remote: bool,
        note: Optional[Callable[[Sequence[Any], Any], Any]],
    ) -> Callable[..., Any]:
        spans = self.spans
        stack_of = self._stack
        clock = time.monotonic

        if inspect.iscoroutinefunction(fn):
            # Coroutines interleave on one loop thread, so they take no
            # part in the per-thread stack; they are always remote.
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = clock()
                    spans.append((layer, name, start, end, end - start,
                                  threading.get_ident(), True, None, ""))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            caller = next((f[1] for f in reversed(stack) if f[1] != layer), "")
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                counted = note(args, result) if note and result is not None else None
                spans.append((layer, name, start, end, duration - frame[0],
                              threading.get_ident(), remote, counted, caller))

        return wrapper

    def install(self, role: str) -> None:
        """Wrap every function of the role's layers; :meth:`uninstall`
        puts the originals back."""
        import importlib

        for layer in ROLES[role]:
            for module_name, cls_name, attr, remote, note in LAYERS[layer]:
                module = importlib.import_module(module_name)
                owner = getattr(module, cls_name) if cls_name else module
                original = owner.__dict__[attr]
                label = f"{cls_name}.{attr}" if cls_name else attr
                wrapped = self._wrap(original, layer, label, remote, note)
                self._set(owner, attr, wrapped)
                if cls_name is None:
                    # Modules that imported the function by name hold
                    # their own reference; rebind those too.
                    for other in list(sys.modules.values()):
                        if (
                            other is not module
                            and getattr(other, "__name__", "").startswith("repro")
                            and other.__dict__.get(attr) is original
                        ):
                            self._set(other, attr, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load_dumps(directory: str) -> List[List[Span]]:
    """The spans of every process dump written into ``directory``."""
    out = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as fh:
            out.append([tuple(span) for span in json.load(fh)])
    return out


def _union(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _covered(
    merged: List[Tuple[float, float]], starts: List[float], lo: float, hi: float
) -> float:
    """Length of [lo, hi] covered by the merged (sorted, disjoint) intervals."""
    total = 0.0
    i = max(0, bisect_left(starts, lo) - 1)
    while i < len(merged) and merged[i][0] < hi:
        start, end = merged[i]
        total += max(0.0, min(end, hi) - max(start, lo))
        i += 1
    return total


class SpanSet:
    """Spans of every process, restricted to the traced windows."""

    def __init__(
        self,
        per_process: Iterable[Sequence[Span]],
        windows: Sequence[Tuple[float, float]],
    ) -> None:
        starts = [w[0] for w in windows]

        def inside(t: float) -> bool:
            i = bisect_left(starts, t) - 1
            return i >= 0 and t <= windows[i][1]

        self.spans: List[Span] = [
            span for spans in per_process for span in spans if inside(span[2])
        ]
        self.spans.sort(key=lambda span: span[2])
        self._self = self._self_times()

    def _self_times(self) -> List[float]:
        """Self seconds per span, resolving remote spans by containment."""
        starts = [span[2] for span in self.spans]
        out = [span[4] for span in self.spans]
        for idx, span in enumerate(self.spans):
            if not span[6]:
                continue
            lo, hi = span[2], span[3]
            inner = []
            j = bisect_left(starts, lo)
            while j < len(self.spans) and starts[j] <= hi:
                other = self.spans[j]
                if j != idx and other[3] <= hi:
                    inner.append((other[2], other[3]))
                j += 1
            out[idx] = (hi - lo) - sum(e - s for s, e in _union(inner))
        return out

    def select(self, layer: Optional[str] = None, name: Optional[str] = None):
        for i, span in enumerate(self.spans):
            if (layer is None or span[0] == layer) and (
                name is None or span[1] == name
            ):
                yield span, self._self[i]

    def self_s(self, layer: str) -> float:
        return sum(s for _span, s in self.select(layer))

    def durations(self, name: str) -> List[float]:
        return [span[3] - span[2] for span, _s in self.select(name=name)]

    def notes(self, name: str) -> List[Any]:
        return [span[7] for span, _s in self.select(name=name)]

    def with_engine_s(self, layer: str) -> float:
        """Self seconds of the layer plus those of the engine calls it
        made itself; for ``engine``, the calls no other layer made.

        The engine prices shapes on behalf of its caller, so this view
        shows which layer's requests the engine's time went to.
        """
        own = 0.0 if layer == "engine" else self.self_s(layer)
        caller = "" if layer == "engine" else layer
        return own + sum(
            s for span, s in self.select("engine") if span[8] == caller
        )

    def layer_budget(self) -> Dict[str, Tuple[float, float]]:
        """(self, with engine calls) seconds per layer that recorded a span."""
        layers = {span[0] for span in self.spans}
        return {layer: (self.self_s(layer), self.with_engine_s(layer))
                for layer in layers}

    def covered_share(self, ops: Sequence[Tuple[float, float]]) -> float:
        """Share of the ops' wall time during which any span was open."""
        merged = _union((span[2], span[3]) for span in self.spans)
        starts = [m[0] for m in merged]
        wall = sum(end - start for start, end in ops)
        covered = sum(_covered(merged, starts, s, e) for s, e in ops)
        return covered / wall if wall > 0 else 0.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
