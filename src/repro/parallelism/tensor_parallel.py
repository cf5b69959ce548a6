"""Megatron-style tensor parallelism over the Table II GEMMs.

Column-parallel QKV / MLP-up, row-parallel projection / MLP-down, one
all-reduce after the attention block and one after the MLP block (per
forward pass).  The per-rank GEMM shapes are the paper's Table II with
the ``/t`` divisions, so this module also encodes the feasibility rules
the Sec VII-A case study turns on: ``a % t == 0`` and ``d_ff % t == 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.config import TransformerConfig
from repro.core.gemms import TransformerGemm, layer_gemms
from repro.core.latency import LayerLatencyModel
from repro.errors import ParallelismError
from repro.parallelism.topology import NodeTopology, get_system
from repro.types import DType


def validate_tp_feasible(cfg: TransformerConfig, t: int) -> None:
    """Raise :class:`ParallelismError` if ``t``-way TP cannot shard cfg."""
    if t <= 0:
        raise ParallelismError(f"tp degree must be positive, got {t}")
    problems = []
    if cfg.num_heads % t:
        problems.append(f"a={cfg.num_heads} not divisible by t={t}")
    if cfg.hidden_size % t:
        problems.append(f"h={cfg.hidden_size} not divisible by t={t}")
    if cfg.d_ff % t:
        problems.append(f"d_ff={cfg.d_ff} not divisible by t={t}")
    if (cfg.microbatch * cfg.num_heads) % t:
        problems.append(f"(b*a)={cfg.microbatch * cfg.num_heads} not divisible by t={t}")
    if problems:
        raise ParallelismError(f"{cfg.name}: infeasible TP: " + "; ".join(problems))


@dataclass(frozen=True)
class TPLayerCost:
    """Per-rank latency decomposition of one tensor-parallel layer."""

    compute_s: float
    comm_s: float
    tp_degree: int

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s

    @property
    def comm_fraction(self) -> float:
        return self.comm_s / self.total_s if self.total_s else 0.0


class TensorParallelLayer:
    """Latency of one transformer layer under t-way tensor parallelism.

    Combines the single-GPU latency model (evaluated on per-rank
    shapes) with the two per-layer all-reduces of the Megatron forward
    pass, costed over the group's interconnect.
    """

    def __init__(
        self,
        system: "str | NodeTopology",
        dtype: "str | DType" = DType.FP16,
        flash_attention: bool = False,
    ) -> None:
        self.topology = get_system(system)
        self.dtype = DType.parse(dtype)
        self.latency_model = LayerLatencyModel(
            self.topology.gpu, self.dtype, flash_attention=flash_attention
        )

    def shard_config(self, cfg: TransformerConfig, t: int) -> TransformerConfig:
        """The configuration as seen by one rank (tp_degree = t)."""
        validate_tp_feasible(cfg, t)
        return cfg.with_overrides(name=f"{cfg.name}@tp{t}", tp_degree=t)

    def rank_gemms(self, cfg: TransformerConfig, t: int) -> List[TransformerGemm]:
        """Per-rank Table II shapes under t-way sharding."""
        return layer_gemms(self.shard_config(cfg, t))

    def layer_cost(self, cfg: TransformerConfig, t: int) -> TPLayerCost:
        """Per-rank compute + collective time of one layer forward."""
        sharded = self.shard_config(cfg, t)
        compute = self.latency_model.layer_latency(sharded)
        comm_model = self.topology.comm_for(t)
        activation_bytes = (
            cfg.microbatch * cfg.seq_len * cfg.hidden_size * self.dtype.bytes
        )
        # Megatron forward: one all-reduce after attention, one after MLP.
        comm = 2 * comm_model.allreduce(activation_bytes, t)
        return TPLayerCost(compute_s=compute, comm_s=comm, tp_degree=t)

    def scaling_table(
        self, cfg: TransformerConfig, degrees: "List[int]"
    ) -> Dict[int, TPLayerCost]:
        """Layer cost per feasible TP degree (infeasible ones omitted)."""
        out: Dict[int, TPLayerCost] = {}
        for t in degrees:
            try:
                out[t] = self.layer_cost(cfg, t)
            except ParallelismError:
                continue
        return out
