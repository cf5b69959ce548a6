"""Tests for the training-step latency model."""

import pytest

from repro.core.config import get_model
from repro.core.gemms import backward_gemms_for, layer_gemms, training_gemms
from repro.core.latency import LayerLatencyModel
from repro.core.training import TrainingStepModel
from repro.errors import ConfigError
from repro.parallelism.comm import CommModel
from repro.trainstep import WALL_MODELS, TrainStepEstimator


@pytest.fixture(scope="module")
def model():
    return TrainingStepModel("A100")


@pytest.fixture(scope="module")
def cfg():
    return get_model("gpt3-2.7b")


class TestBackwardGemms:
    def test_shapes_are_transposes(self):
        op = layer_gemms(get_model("gpt3-2.7b"))[0]  # QKV (bs, h)x(h, 3h)
        dgrad, wgrad = backward_gemms_for(op)
        assert (dgrad.m, dgrad.k, dgrad.n) == (op.m, op.n, op.k)
        assert (wgrad.m, wgrad.k, wgrad.n) == (op.k, op.m, op.n)

    def test_equal_flops(self):
        for op in layer_gemms(get_model("gpt3-2.7b")):
            for bop in backward_gemms_for(op):
                assert bop.flops == op.flops

    def test_training_gemms_3x_count_and_flops(self, cfg):
        fwd_ops = layer_gemms(cfg) * cfg.num_layers
        train_ops = training_gemms(cfg)
        assert len(train_ops) == 3 * (len(fwd_ops) + 1)
        fwd_flops = sum(op.flops for op in fwd_ops)
        train_flops = sum(op.flops for op in train_ops)
        logit_flops = train_ops[-3].flops
        assert train_flops == 3 * (fwd_flops + logit_flops)


class TestStep:
    def test_components_positive(self, model, cfg):
        step = model.step(cfg)
        assert step.forward_s > 0
        assert step.backward_s > 0
        assert step.optimizer_s > 0
        assert step.allreduce_s == 0.0
        assert step.total_s == pytest.approx(
            step.forward_s + step.backward_s + step.optimizer_s
        )

    def test_backward_roughly_2x_forward(self, model, cfg):
        step = model.step(cfg)
        assert 1.5 <= step.backward_to_forward_ratio <= 2.8

    def test_grad_accumulation_scales_compute_not_optimizer(self, model, cfg):
        one = model.step(cfg, grad_accumulation=1)
        four = model.step(cfg, grad_accumulation=4)
        assert four.forward_s == pytest.approx(4 * one.forward_s)
        assert four.optimizer_s == pytest.approx(one.optimizer_s)
        assert four.tokens == 4 * one.tokens

    def test_data_parallel_adds_allreduce(self, model, cfg):
        dp = model.step(cfg, data_parallel=8, comm=CommModel(bw_bytes_s=300e9))
        assert dp.allreduce_s > 0

    def test_invalid_args_raise(self, model, cfg):
        with pytest.raises(ConfigError):
            model.step(cfg, grad_accumulation=0)

    def test_tflops_below_peak(self, model, cfg, a100):
        step = model.step(cfg)
        assert 0 < step.tflops < a100.matrix_peak_tflops(model.dtype)


class TestTrainingShapeSensitivity:
    """The 'trained almost 20% faster' claim, end-to-end."""

    def test_retuned_27b_trains_faster(self, model, cfg):
        retuned = cfg.with_overrides(num_heads=20)
        speedup = model.speedup(cfg, retuned)
        # Paper: ~1.18x; our band mirrors the forward-pass one.
        assert 1.08 <= speedup <= 1.6

    def test_c1_trains_slower(self, model, cfg):
        assert model.speedup(cfg, get_model("c1")) < 1.0

    def test_alignment_hits_backward_too(self, model):
        # The backward GEMMs inherit the forward's misalignment: the
        # h/a=80 shape's four attention backward GEMMs are jointly
        # slower than h/a=64's at equal total FLOPs.
        base = get_model("gpt3-2.7b")
        aligned = base.with_overrides(num_heads=40)  # h/a = 64

        def attention_bwd_s(cfg):
            return sum(
                m.backward_s
                for m in model.estimator.estimate(cfg).modules
                if m.module in ("attention_score", "attention_over_value")
            )

        assert attention_bwd_s(aligned) < attention_bwd_s(base)

    def test_flash_training_faster_than_unfused(self, cfg):
        plain = TrainingStepModel("A100").step(cfg)
        flash = TrainingStepModel("A100", flash_attention=True).step(cfg)
        assert flash.total_s < plain.total_s


class TestOnePricer:
    """The training step, the forward model and the estimator agree:
    one forward, one optimizer phase, one set of GEMM prices."""

    @pytest.mark.parametrize("gpu", ["A100", "H100"])
    @pytest.mark.parametrize("name", WALL_MODELS)
    def test_step_forward_and_estimator_agree(self, gpu, name):
        cfg = get_model(name)
        step = TrainingStepModel(gpu).step(cfg)
        forward = LayerLatencyModel(gpu)
        estimate = TrainStepEstimator(gpu).estimate(cfg)
        assert step.forward_s == forward.model_latency(cfg)
        assert step.optimizer_s == estimate.phase("optimizer").seconds
        assert estimate.phase("forward").seconds == pytest.approx(
            forward.model_breakdown(cfg).gemm_s, rel=1e-12
        )
