"""Cost-model tests, including the paper Table I reproduction."""

import pytest

from repro.hardware.cost_model import CostModel
from repro.model.zoo import MIXTRAL_8X7B_ARCH


@pytest.fixture()
def cm(table1_platform):
    return CostModel(MIXTRAL_8X7B_ARCH, table1_platform)


class TestTable1:
    """Paper Table I: block and migration times on A100 + Xeon 6326.

    Tolerances are deliberately loose (20 %): the point is that the
    calibrated model lands in the measured regime, preserving the ratios
    that drive every scheduling decision (expert upload ~32x a GPU block).
    """

    def test_gpu_block_time(self, cm):
        t = cm.block_time(cm.platform.gpu, n_tokens=1, context_len=256)
        assert t * 1e3 == pytest.approx(1.24, rel=0.20)

    def test_cpu_block_time(self, cm):
        t = cm.block_time(cm.platform.cpu, n_tokens=1, context_len=256)
        assert t * 1e3 == pytest.approx(8.02, rel=0.20)

    def test_expert_upload_time(self, cm):
        t = cm.expert_transfer_time()
        assert t * 1e3 == pytest.approx(39.87, rel=0.20)

    def test_activation_transfer_time(self, cm):
        t = cm.activation_transfer_time(1)
        assert t * 1e3 == pytest.approx(0.02, rel=0.5)

    def test_upload_much_slower_than_gpu_block(self, cm):
        """The paper's headline ratio: migration ~32x GPU block time."""
        ratio = cm.expert_transfer_time() / cm.block_time(
            cm.platform.gpu, 1, 256
        )
        assert 20 < ratio < 45

    def test_activations_tiny_vs_weights(self, cm):
        """Expert I/O is ~4 orders of magnitude below expert weights."""
        ratio = cm.arch.expert_bytes / cm.arch.hidden_state_bytes
        assert ratio > 10_000


class TestScaling:
    def test_prefill_cpu_compute_bound(self, cm):
        """CPU expert time grows ~linearly with token count (paper IV-B)."""
        t1 = cm.expert_time(cm.platform.cpu, 1)
        t256 = cm.expert_time(cm.platform.cpu, 256)
        assert t256 > 10 * t1

    def test_decode_gpu_memory_bound(self, cm):
        """At batch 1 the GPU expert op is weight-bandwidth bound."""
        t1 = cm.expert_time(cm.platform.gpu, 1)
        t8 = cm.expert_time(cm.platform.gpu, 8)
        assert t8 < 1.5 * t1

    def test_non_moe_grows_with_context(self, cm):
        short = cm.non_moe_time(cm.platform.gpu, 1, 128)
        long = cm.non_moe_time(cm.platform.gpu, 1, 4096)
        assert long > short

    def test_quantized_transfer_faster(self, cm):
        assert cm.expert_transfer_time(0.25) < cm.expert_transfer_time(1.0)

    def test_quant_ratio_validated(self, cm):
        with pytest.raises(ValueError):
            cm.expert_transfer_time(0.0)
        with pytest.raises(ValueError):
            cm.expert_transfer_time(1.5)


class TestCapacity:
    def test_gpu_expert_slots_positive(self, cm):
        slots = cm.gpu_expert_slots()
        assert 0 < slots <= 32 * 8

    def test_reserve_reduces_slots(self, cm):
        assert cm.gpu_expert_slots(0.4) < cm.gpu_expert_slots(0.0)

    def test_a6000_capacity_near_paper_ecr(self, platform):
        """The paper's 'full GPU memory' ECR for Mixtral is 46.9 %.

        48 GB minus non-expert weights leaves ~120 expert slots of 256.
        """
        cm = CostModel(MIXTRAL_8X7B_ARCH, platform)
        ecr = cm.gpu_expert_slots() / (32 * 8)
        assert ecr == pytest.approx(0.469, abs=0.05)


class TestBatchEfficiency:
    """Batch-efficiency curves backing gathered cross-sequence kernels."""

    def test_single_row_is_unity(self, cm):
        assert cm.expert_batch_efficiency(cm.platform.gpu, 1) == 1.0
        assert cm.lm_head_batch_efficiency(cm.platform.gpu, 1) == 1.0

    def test_ratio_bounded_and_decreasing(self, cm):
        prev = 1.0
        for n in (2, 4, 8, 16):
            eff = cm.expert_batch_efficiency(cm.platform.gpu, n)
            assert 0.0 < eff <= 1.0
            assert eff < prev
            prev = eff

    def test_bandwidth_bound_regime_is_nearly_free(self, cm):
        """In the decode regime, 4 gathered rows cost far less than 4 ops."""
        eff = cm.expert_batch_efficiency(cm.platform.gpu, 4)
        # Weight bytes dominate: amortization should approach 1/4.
        assert eff < 0.5

    def test_overhead_amortizes(self, cm):
        plain = cm.expert_batch_efficiency(cm.platform.gpu, 4)
        with_overhead = cm.expert_batch_efficiency(
            cm.platform.gpu, 4, overhead_s=1e-3
        )
        # A fixed per-op overhead is paid once instead of n times, so it
        # only improves the gathered-to-solo ratio.
        assert with_overhead < plain

    def test_rejects_nonpositive_rows(self, cm):
        with pytest.raises(ValueError):
            cm.batch_efficiency(cm.platform.gpu, cm.arch.expert_params, 0)

    # (curve method, ArchSpec weight field) for every priced stage.
    STAGE_CURVES = (
        ("expert_batch_efficiency", "expert_params"),
        ("lm_head_batch_efficiency", "embedding_params"),
        ("attention_batch_efficiency", "attention_params"),
        ("gate_batch_efficiency", "gate_params"),
    )

    @pytest.mark.parametrize("curve,params_field", STAGE_CURVES)
    @pytest.mark.parametrize("overhead", (0.0, 2.5e-4))
    def test_every_stage_curve_monotone_non_increasing(
        self, cm, curve, params_field, overhead
    ):
        """Gathering one more row never makes the per-row cost worse."""
        eff = [
            getattr(cm, curve)(cm.platform.gpu, n, overhead_s=overhead)
            for n in range(1, 65)
        ]
        assert eff[0] == 1.0
        assert all(0.0 < e <= 1.0 for e in eff)
        for wider, narrower in zip(eff[1:], eff):
            assert wider <= narrower + 1e-12

    @pytest.mark.parametrize("curve,params_field", STAGE_CURVES)
    @pytest.mark.parametrize("overhead", (0.0, 2.5e-4))
    def test_every_stage_curve_bounded_by_compute_roofline(
        self, cm, curve, params_field, overhead
    ):
        """No curve dips below the per-row compute-roofline ratio.

        ``eff(n) = (oh + T(n)) / (n * (oh + T(1)))`` and ``T(n)`` can
        never beat the compute roofline ``2*W*n / flops``, so the curve
        is bounded below by ``(2*W/flops) / (oh + T(1))`` at every n.
        """
        gpu = cm.platform.gpu
        weights = getattr(cm.arch, params_field)
        solo = overhead + gpu.op_time(
            2.0 * weights,
            weights * cm.arch.dtype_bytes + 2.0 * cm.arch.hidden_state_bytes,
        )
        floor = (2.0 * weights / gpu.effective_flops) / solo
        for n in (1, 2, 4, 8, 32, 256, 4096):
            eff = getattr(cm, curve)(cm.platform.gpu, n, overhead_s=overhead)
            assert eff >= floor - 1e-15
