"""Tests for the trace profiler (executed ops -> modelled kernel time)."""

import numpy as np
import pytest

from repro.core.profile import TraceProfiler
from repro.errors import ExperimentError
from repro.gpu.gemm_model import GemmModel
from repro.transformer.backward import loss_and_gradients
from repro.transformer.model import DecoderModel
from repro.transformer.trace import OpTrace


@pytest.fixture(scope="module")
def traced_forward():
    model = DecoderModel(
        vocab_size=512,
        max_seq=32,
        hidden_size=128,
        num_heads=8,
        num_layers=2,
        rng=np.random.default_rng(0),
    )
    trace = OpTrace()
    ids = np.random.default_rng(1).integers(0, 512, size=(32, 2))
    model.forward(ids, trace)
    return model, trace


class TestProfile:
    def test_covers_every_module(self, traced_forward):
        _, trace = traced_forward
        profiler = TraceProfiler("A100")
        modules = {p.module for p in profiler.profile(trace)}
        assert modules == set(trace.modules())

    def test_calls_and_flops_aggregate(self, traced_forward):
        _, trace = traced_forward
        profiles = {p.module: p for p in TraceProfiler("A100").profile(trace)}
        assert profiles["qkv_transform"].calls == 2  # one per layer
        assert profiles["logit"].calls == 1
        total_flops = sum(p.flops for p in profiles.values())
        assert total_flops == trace.flops()

    def test_sorted_by_latency(self, traced_forward):
        _, trace = traced_forward
        profiles = TraceProfiler("A100").profile(trace)
        lats = [p.latency_s for p in profiles]
        assert lats == sorted(lats, reverse=True)

    def test_total_latency_positive(self, traced_forward):
        _, trace = traced_forward
        assert TraceProfiler("A100").total_latency_s(trace) > 0

    def test_empty_trace_raises(self):
        with pytest.raises(ExperimentError):
            TraceProfiler("A100").profile(OpTrace())

    def test_table_shares_sum_to_one(self, traced_forward):
        _, trace = traced_forward
        table = TraceProfiler("A100").as_table(trace)
        assert sum(table.column("share")) == pytest.approx(1.0)

    def test_faster_gpu_profiles_faster(self, traced_forward):
        _, trace = traced_forward
        a100 = TraceProfiler("A100").total_latency_s(trace)
        h100 = TraceProfiler("H100").total_latency_s(trace)
        assert h100 < a100


@pytest.fixture(scope="module")
def traced_step():
    model = DecoderModel(
        vocab_size=64,
        max_seq=8,
        hidden_size=16,
        num_heads=2,
        num_layers=1,
        rng=np.random.default_rng(0),
    )
    trace = OpTrace()
    loss_and_gradients(model, np.random.default_rng(1).integers(0, 64, (8, 2)), trace)
    return trace


class TestScalarOracle:
    @pytest.mark.parametrize("gpu", ["A100", "H100"])
    @pytest.mark.parametrize("which", ["forward", "step"])
    def test_matches_scalar_gemm_model_per_record(
        self, gpu, which, traced_forward, traced_step
    ):
        # The profiler's one engine call must price every record exactly
        # as the scalar model does: accumulate the scalar latencies in
        # trace order and demand bit-identical module totals.
        trace = traced_forward[1] if which == "forward" else traced_step
        scalar = GemmModel(gpu)
        expected = {}
        for rec in trace:
            perf = scalar.evaluate(rec.m, rec.n, rec.k, batch=rec.batch)
            expected[rec.module] = expected.get(rec.module, 0.0) + perf.latency_s
        profiles = {p.module: p.latency_s for p in TraceProfiler(gpu).profile(trace)}
        assert profiles == expected


class TestTrainingProfile:
    def test_backward_modules_appear(self, traced_step):
        modules = {p.module for p in TraceProfiler("A100").profile(traced_step)}
        assert "qkv_transform.dgrad" in modules
        assert "mlp_h_to_4h.wgrad" in modules
