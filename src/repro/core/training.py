"""Training-step latency model (the paper's "trained 20% faster" claim).

A training step is the forward pass, the backward pass (each forward
GEMM induces a dgrad and a wgrad GEMM of equal FLOPs —
:func:`repro.core.gemms.backward_gemms_for`), roughly doubled pointwise
traffic, the optimizer update (a pure weight/optimizer-state streaming
pass), and optionally a data-parallel gradient all-reduce.  Because the
backward GEMMs are transposes of the forward shapes, *the same
alignment pathologies hit them too* — which is why shape retunes speed
up training end-to-end, not just inference.

The forward pass is :meth:`LayerLatencyModel.model_breakdown`; the
backward GEMMs and the optimizer come from one
:meth:`~repro.trainstep.step.TrainStepEstimator.estimate` grid call.
Only the terms the estimator does not price are added here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import TransformerConfig
from repro.core.latency import FLASH_FUSED_GEMMS, LatencyBreakdown, LayerLatencyModel
from repro.errors import ConfigError
from repro.gpu.specs import GPUSpec, get_gpu
from repro.parallelism.comm import CommModel
from repro.trainstep.step import PHASE_BACKWARD, PHASE_OPTIMIZER, TrainStepEstimator
from repro.types import DType, teraflops


@dataclass(frozen=True)
class TrainingStep:
    """Latency decomposition of one training step on one GPU."""

    forward_s: float
    backward_s: float
    optimizer_s: float
    allreduce_s: float
    flops: int
    tokens: int

    @property
    def total_s(self) -> float:
        return self.forward_s + self.backward_s + self.optimizer_s + self.allreduce_s

    @property
    def tokens_per_second(self) -> float:
        return self.tokens / self.total_s if self.total_s else 0.0

    @property
    def tflops(self) -> float:
        """Achieved model TFLOP/s over the step."""
        return teraflops(self.flops, self.total_s) if self.total_s else 0.0

    @property
    def backward_to_forward_ratio(self) -> float:
        return self.backward_s / self.forward_s if self.forward_s else 0.0


class TrainingStepModel:
    """Latency of one optimizer step for a model configuration."""

    def __init__(
        self,
        gpu: "str | GPUSpec" = "A100",
        dtype: "str | DType" = DType.FP16,
        flash_attention: bool = False,
    ) -> None:
        self.spec = get_gpu(gpu)
        self.dtype = DType.parse(dtype)
        self.layer_model = LayerLatencyModel(
            self.spec, self.dtype, flash_attention=flash_attention
        )
        self.estimator = TrainStepEstimator(self.spec, self.dtype)
        self.flash = flash_attention

    def forward_breakdown(self, cfg: TransformerConfig) -> LatencyBreakdown:
        return self.layer_model.model_breakdown(cfg)

    def step(
        self,
        cfg: TransformerConfig,
        grad_accumulation: int = 1,
        data_parallel: int = 1,
        comm: Optional[CommModel] = None,
    ) -> TrainingStep:
        """One optimizer step: G micro-steps of fwd+bwd, then update.

        ``comm`` provides the gradient all-reduce cost when
        ``data_parallel > 1`` (defaults to a 100 GB/s link model).
        """
        if grad_accumulation <= 0 or data_parallel <= 0:
            raise ConfigError("grad_accumulation and data_parallel must be positive")
        fwd = self.forward_breakdown(cfg)
        estimate = self.estimator.estimate(cfg)
        backward = estimate.phase(PHASE_BACKWARD)
        backward_s, backward_flops = backward.seconds, backward.flops
        if self.flash:
            # The fused kernel replaces the unfused score/AOV backward
            # pairs; a module's rollup FLOPs are its forward plus that
            # pair, each at forward FLOPs, so the pair is 2/3 of them.
            for module in estimate.modules:
                if module.module in FLASH_FUSED_GEMMS:
                    backward_s -= module.backward_s
                    backward_flops -= 2 * module.flops // 3
            # FlashAttention backward recomputes the forward and runs
            # ~2.5x its FLOPs in one fused kernel.
            batch = cfg.microbatch * cfg.num_heads // cfg.tp_degree
            fp = self.layer_model.flash_model.evaluate(
                batch, cfg.seq_len, cfg.head_dim
            )
            backward_s += 2.5 * fp.latency_s * cfg.num_layers
            backward_flops += int(2.5 * fp.flops) * cfg.num_layers
        # Pointwise backward: roughly mirrors the forward's non-GEMM
        # traffic (norm/softmax/activation backward read the saved
        # activations and write gradients).
        backward_s += fwd.total_s - fwd.gemm_s
        allreduce = 0.0
        if data_parallel > 1:
            comm = comm or CommModel(bw_bytes_s=100e9)
            grad_bytes = cfg.param_count() / cfg.tp_degree * self.dtype.bytes
            allreduce = comm.allreduce(grad_bytes, data_parallel)
        return TrainingStep(
            forward_s=fwd.total_s * grad_accumulation,
            backward_s=backward_s * grad_accumulation,
            optimizer_s=estimate.phase(PHASE_OPTIMIZER).seconds,
            allreduce_s=allreduce,
            flops=(fwd.flops + backward_flops) * grad_accumulation,
            tokens=cfg.tokens_per_microbatch * grad_accumulation,
        )

    def tokens_per_second(self, cfg: TransformerConfig, **kw) -> float:
        return self.step(cfg, **kw).tokens_per_second

    def speedup(
        self, baseline: TransformerConfig, candidate: TransformerConfig, **kw
    ) -> float:
        """Training-throughput ratio candidate/baseline (>1 = faster)."""
        return self.tokens_per_second(candidate, **kw) / self.tokens_per_second(
            baseline, **kw
        )
