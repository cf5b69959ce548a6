"""How fast the host runs right now, from a fixed reference loop.

The benchmark's host is shared: a fixed loop of Python code swings by
±25% between one-second windows and drifts by more over minutes, in CPU
time as well as in wall time.  A run therefore times a short burst of
this reference loop between every two slices of its workload, and
rescales each slice's times to a host that runs the loop at
:data:`NOMINAL_UNITS_PER_S`.  The loop belongs to the benchmark and
calls nothing of the program, so a change to the program cannot move
it; the ratio between the program's speed and the loop's is what the
metrics carry.

The loop mixes what the program spends its time on: interpreted Python
(integer and float arithmetic, dict and list traffic, attribute access)
and small NumPy array operations.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Reference units per second of the nominal host: the typical rate of
#: the loop, pinned to one CPU, on the 2-vCPU host the benchmark was
#: written on.  Times are reported as they would read on that host.
NOMINAL_UNITS_PER_S = 4000.0
#: Seconds of reference loop timed between two slices of a workload.
BURST_S = 0.01


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


_VECTOR = np.linspace(1.0, 2.0, 64)


def reference_unit() -> float:
    """One unit of fixed work; returns a value so nothing is skipped."""
    table = {}
    points = []
    acc = 0.0
    for i in range(300):
        p = _Point(i * 0.5, (i * 7) % 13)
        points.append(p)
        table[i & 31] = p.x + p.y
        acc += table.get((i * 3) & 31, 0.0) * 1.0001
    vec = _VECTOR
    for _ in range(12):
        vec = np.maximum(vec * 1.0001, 0.5) + 1e-9
        acc += float(vec.sum())
    points.sort(key=lambda q: q.y)
    return acc + points[0].x


def units_per_s(seconds: float = BURST_S) -> float:
    """Reference units per second over a burst of ``seconds``.

    The cyclic garbage collector is off during the burst: a collection
    would walk the calling process's heap, whose size depends on the
    workload, and the burst measures the host, not that heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        units = 0
        while True:
            reference_unit()
            units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return units / elapsed
    finally:
        if enabled:
            gc.enable()


def slowdown(rate: float) -> float:
    """Factor by which times on a host running the loop at ``rate``
    exceed times on the nominal host (below 1 on a faster host)."""
    return NOMINAL_UNITS_PER_S / rate
