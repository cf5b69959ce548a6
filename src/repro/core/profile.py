"""Profile a recorded OpTrace with the GPU model.

:class:`~repro.transformer.trace.OpTrace` records what a NumPy model
*actually executed* — including the backward pass, tensor-parallel
shards, GQA widths, whatever the run did.  This module bridges that
record to the performance substrate: every traced matmul is priced by
the analytic GEMM model in one batch-engine call, producing the
per-module latency profile a GPU profiler (nsight) would show for the
same computation on real hardware.

This closes the loop the paper draws in Fig 2/11: from *executed
operations* to *modelled kernel time*, without trusting any hand-derived
mapping in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.engine.core import default_engine
from repro.errors import ExperimentError
from repro.gpu.specs import GPUSpec, get_gpu
from repro.harness.results import ResultTable
from repro.observability import metrics as _metrics
from repro.observability import span as _span
from repro.transformer.trace import OpTrace
from repro.types import DType, teraflops


@dataclass(frozen=True)
class ProfiledModule:
    """Aggregated modelled cost of one trace module label."""

    module: str
    calls: int
    flops: int
    latency_s: float

    @property
    def tflops(self) -> float:
        return teraflops(self.flops, self.latency_s) if self.latency_s else 0.0


class TraceProfiler:
    """Prices every matmul of an OpTrace on one GPU."""

    def __init__(
        self, gpu: "str | GPUSpec" = "A100", dtype: "str | DType" = DType.FP16
    ) -> None:
        self.spec = get_gpu(gpu)
        self.dtype = DType.parse(dtype)

    def profile(self, trace: OpTrace) -> List[ProfiledModule]:
        """Aggregate the trace per module label, largest latency first."""
        if len(trace) == 0:
            raise ExperimentError("cannot profile an empty trace")
        # One engine call prices every record; the trace stores
        # (batch, m, k, n) and the engine takes (batch, m, n, k).
        shapes = trace.to_columns()["shape"][:, [0, 1, 3, 2]]
        latency = default_engine().latency(shapes, self.spec, self.dtype)
        totals: Dict[str, List] = {}
        for rec, seconds in zip(trace, latency.tolist()):
            entry = totals.setdefault(rec.module, [0, 0, 0.0])
            entry[0] += 1
            entry[1] += rec.flops
            entry[2] += seconds
        agg = []
        for module, (calls, flops, latency_s) in totals.items():
            # One span per priced module, carrying the *modelled*
            # latency as an attribute.
            with _span("profile.module", module=module) as sp:
                sp.set(calls=calls, flops=flops, modelled_latency_s=latency_s)
            agg.append(ProfiledModule(module, calls, flops, latency_s))
        _metrics().counter("profile.modules_priced").inc(len(totals))
        return sorted(agg, key=lambda p: -p.latency_s)

    def total_latency_s(self, trace: OpTrace) -> float:
        """Sum of all modelled kernel times (serial execution)."""
        return sum(p.latency_s for p in self.profile(trace))

    def as_table(self, trace: OpTrace, title: str = "Trace profile") -> ResultTable:
        """The profile as a ResultTable (for printing/export)."""
        profiles = self.profile(trace)
        total = sum(p.latency_s for p in profiles) or 1.0
        table = ResultTable(
            title,
            ["module", "calls", "latency_ms", "share", "tflops"],
            notes=f"priced on {self.spec.name} ({self.dtype.name})",
        )
        for p in profiles:
            table.add(p.module, p.calls, p.latency_s * 1e3, p.latency_s / total, p.tflops)
        return table
