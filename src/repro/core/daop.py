"""The DAOP inference engine (paper §IV).

DAOP combines three mechanisms on top of the shared substrate:

1. **Calibrated memory initialization** -- the GPU expert cache starts
   from decode-phase activation probabilities measured on a calibration
   dataset (§IV-A, :mod:`repro.core.calibration`).
2. **Sequence-specific expert allocation** -- during prefill, each block's
   per-sequence expert activity drives hot-CPU/cold-GPU swaps (§IV-B,
   Algorithm 1, :mod:`repro.core.allocation`); migrations overlap with
   prefill compute and the placement then stays fixed for decode.
3. **Prediction-based expert pre-calculation** -- during decode, block
   ``i+1``'s gate evaluated on block ``i``'s non-MoE output predicts the
   next block's experts (§IV-C); predicted CPU-resident experts start
   computing immediately on the CPU using those (one-block-stale) hidden
   states, and graceful degradation swaps the weaker of two CPU-resident
   predictions for the best GPU-resident expert.

The prediction path is an *approximation*: for predicted blocks the
executed expert set comes from the predictive gate (plus degradation), and
CPU experts consume stale inputs.  This is exactly the accuracy/latency
trade Tables V and VI of the paper measure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.allocation import SWAP_IN_OUT_DEFAULT, plan_block_swaps
from repro.core.batching import (
    CPU_LOC,
    GPU_LOC,
    BlockWork,
    ExpertCall,
    PrecalcWork,
)
from repro.core.engine import BaseEngine, BlockPlan, SequenceState
from repro.core.precalc import apply_graceful_degradation
from repro.core.predictor import (
    PREDICTION_START_BLOCK_DEFAULT,
    NextLayerPredictor,
)
from repro.hardware.platform import Platform
from repro.hardware.timeline import Op
from repro.memory.cache import CacheConfig
from repro.model.gating import Router
from repro.model.serialization import decode_array, encode_array
from repro.model.zoo import ModelBundle
from repro.trace.recorder import DECODE


@dataclass
class _DAOPSequencePolicy:
    """Per-sequence DAOP policy state (``ctx.policy``).

    Attributes:
        window: rolling per-token ``(n_blocks, n_experts)`` routing
            counts for the decode re-allocation extension.
        steps: decode tokens completed so far.

    The extension's in-flight swap uploads live in the sequence's
    residency (``ctx.residency.pending``).
    """

    window: deque
    steps: int = 0


class DAOPEngine(BaseEngine):
    """Data-aware offloading with predictive pre-calculation."""

    name = "daop"

    def __init__(
        self,
        bundle: ModelBundle,
        platform: Platform,
        cache_config: CacheConfig | None = None,
        calibration_probs: np.ndarray | None = None,
        swap_threshold: float = SWAP_IN_OUT_DEFAULT,
        prediction_start_block: int = PREDICTION_START_BLOCK_DEFAULT,
        graceful_degradation: bool = True,
        max_cpu_experts: int = 1,
        enable_seq_allocation: bool = True,
        enable_precalc: bool = True,
        decode_realloc_interval: int | None = None,
        decode_realloc_window: int = 15,
        decode_realloc_threshold: float = 2.0,
        decode_realloc_min_activity: float = 4.0,
        decode_realloc_max_swaps_per_block: int = 1,
    ) -> None:
        """See class docstring; the five ``decode_realloc_*`` arguments
        configure the decode-phase re-allocation extension.

        The paper restricts migration to prefill and observes (§VI-B)
        that GSM8K-style within-sequence drift then defeats a small
        cache.  Setting ``decode_realloc_interval = k`` re-runs
        Algorithm 1 every ``k`` decode tokens using routing counts from
        the trailing ``decode_realloc_window`` tokens (the paper's own
        drift analysis uses a 15-token window), with the swap uploads
        overlapped against subsequent decode compute.  ``None`` (the
        default) reproduces the paper's engine exactly.

        Decode swaps use a much stricter policy than prefill (higher
        threshold, a minimum window activity, and a per-block swap cap):
        window counts are small and noisy, and each upload occupies the
        H2D channel the pre-calculation round-trips also need, so churn
        is far more expensive than during prefill.
        """
        super().__init__(
            bundle, platform,
            cache_config=cache_config or CacheConfig(ecr=0.5),
            calibration_probs=calibration_probs,
        )
        if decode_realloc_interval is not None and decode_realloc_interval < 1:
            raise ValueError("decode_realloc_interval must be positive")
        if decode_realloc_window < 1:
            raise ValueError("decode_realloc_window must be positive")
        self.swap_threshold = swap_threshold
        if enable_precalc:
            self.predictor = NextLayerPredictor(
                self.model, start_block=prediction_start_block
            )
            self.approximate_routing = True
        self.graceful_degradation = graceful_degradation
        self.max_cpu_experts = max_cpu_experts
        self.enable_seq_allocation = enable_seq_allocation
        self.enable_precalc = enable_precalc
        self.decode_realloc_interval = decode_realloc_interval
        self.decode_realloc_window = decode_realloc_window
        self.decode_realloc_threshold = decode_realloc_threshold
        self.decode_realloc_min_activity = decode_realloc_min_activity
        self.decode_realloc_max_swaps_per_block = (
            decode_realloc_max_swaps_per_block
        )

    def _begin_sequence(self, ctx: SequenceState) -> None:
        # The window is used only when the decode re-allocation
        # extension is enabled; it lives on the sequence state so
        # interleaved sequences never share migration state.
        ctx.policy = _DAOPSequencePolicy(
            window=deque(maxlen=self.decode_realloc_window)
        )

    def _policy_state_dict(self, state):
        policy = state.policy
        return {
            "window": [encode_array(counts) for counts in policy.window],
            "steps": policy.steps,
        }

    def _restore_policy(self, state, payload):
        state.policy = _DAOPSequencePolicy(
            window=deque(
                (decode_array(counts) for counts in payload["window"]),
                maxlen=self.decode_realloc_window,
            ),
            steps=int(payload["steps"]),
        )

    # ---- prefill: Algorithm 1 ---------------------------------------------------

    def _prepare_prefill_block(self, ctx: SequenceState, block_idx: int,
                               activated: np.ndarray, activity: np.ndarray,
                               deps: list[Op]) -> BlockPlan:
        if not self.enable_seq_allocation:
            return BlockPlan()
        plans = plan_block_swaps(
            block_idx, activity, ctx.residency.placement,
            self.swap_threshold,
        )
        uploads = []
        for plan in plans:
            # Read-only inference weights: the outgoing expert's host copy
            # is valid, so the swap costs one H2D upload that overlaps with
            # the ongoing prefill compute.  The cohort driver lands it,
            # shared with every member swapping the same expert in.
            ctx.residency.evict(block_idx, plan.cold_expert)
            uploads.append(plan.hot_expert)
            ctx.counters.prefill_swaps += 1
        return BlockPlan(uploads=tuple(uploads))

    # ---- decode: predictive pre-calculation ---------------------------------------

    def _prepare_decode_block(self, ctx: SequenceState, block_idx: int,
                              activated: np.ndarray,
                              deps: list[Op]) -> BlockPlan:
        """A true-gated block waits on its in-flight decode-migration
        uploads."""
        pending = ctx.residency.pending
        extra: dict[int, list[Op]] = {}
        for expert in activated.tolist():
            upload = pending.pop((block_idx, expert), None)
            if upload is not None:
                extra[expert] = [upload]
        return BlockPlan(extra_deps=extra)

    def _after_decode_token(self, ctx: SequenceState, done: Op) -> None:
        """Decode re-allocation extension hook (no-op when disabled)."""
        if self.decode_realloc_interval is None:
            return
        # The current token's events sit at the tail of the trace (one per
        # block, appended by this decode step).
        counts = ctx.trace.trailing_counts(
            DECODE, ctx.position - 1
        ).astype(np.float64)
        policy = ctx.policy
        residency = ctx.residency
        policy.window.append(counts)
        policy.steps += 1
        if policy.steps % self.decode_realloc_interval != 0:
            return
        window_activity = np.sum(policy.window, axis=0)
        for block_idx in range(self.model.n_blocks):
            plans = plan_block_swaps(
                block_idx, window_activity[block_idx], residency.placement,
                self.decode_realloc_threshold,
            )
            plans = [
                plan for plan in plans
                if plan.hot_activity >= self.decode_realloc_min_activity
            ][: self.decode_realloc_max_swaps_per_block]
            for plan in plans:
                residency.evict(block_idx, plan.cold_expert)
                # The swapped-out expert's weights are no longer resident:
                # any still-pending upload of it must not survive as a
                # dependency for a future activation (audited by
                # repro.audit.invariants).
                residency.pending.pop((block_idx, plan.cold_expert), None)
                residency.pending[block_idx, plan.hot_expert] = \
                    self._upload_expert(ctx, block_idx, plan.hot_expert,
                                        [done])
                ctx.counters.decode_swaps += 1

    def _look_ahead(self, ctx: SequenceState, block_idx: int,
                    h_att: np.ndarray, prediction, pred_gate: Op):
        """Start block ``block_idx + 1``'s predicted CPU experts early.

        Generator: the predicted CPU-resident experts (after graceful
        degradation), fed the *current* block's non-MoE hidden states
        ``h_att`` (one block stale -- the paper's approximation), are
        yielded as one :class:`~repro.core.batching.PrecalcWork` after
        ``pred_gate`` (none when every prediction is GPU-resident).
        Returns the carry :meth:`_predicted_block` consumes at the next
        block: ``(executed_experts, predicted_logits, cpu_results)``.
        """
        placement = ctx.residency.placement
        degradation = apply_graceful_degradation(
            block_idx + 1,
            prediction.experts,
            prediction.logits,
            placement,
            max_cpu_experts=self.max_cpu_experts,
            enabled=self.graceful_degradation,
        )
        ctx.counters.degraded_swaps += len(degradation.replaced)
        calls = []
        for expert in degradation.experts.tolist():
            if not placement.is_on_gpu(block_idx + 1, expert):
                calls.append(ExpertCall(expert=expert, location=CPU_LOC,
                                        h_att=h_att, deps=(pred_gate,)))
        cpu_results: dict[int, tuple[np.ndarray, Op]] = {}
        if calls:
            results = yield PrecalcWork(block_idx=block_idx + 1,
                                        calls=tuple(calls))
            ctx.counters.stale_input_execs += len(calls)
            for call, (y, h2d) in zip(calls, results):
                cpu_results[call.expert] = (y[0], h2d)
        return degradation.experts, prediction.logits, cpu_results

    def _predicted_block(self, ctx: SequenceState, block_idx: int,
                         h_att: np.ndarray, logits: np.ndarray,
                         attn_op: Op, carry):
        """Execute a block whose expert set was predicted one block ago.

        Generator: pre-calculated CPU results are consumed directly;
        the remaining GPU/fallback executions are yielded as routed
        work (in slot order, matching the pre-protocol inline path) and
        scattered back into their slots.  Use via ``yield from``.
        """
        executed, pred_logits, cpu_results = carry
        block = self.model.blocks[block_idx]

        # Oracle instrumentation: what the true gate *would* have selected
        # (functional only; DAOP does not spend time on this gate).
        true_logits = logits[0]
        true_selection = np.argsort(-true_logits, kind="stable")[
            : self.model.top_k
        ]
        ctx.trace.record(
            DECODE, block_idx, ctx.position, true_selection,
            executed_experts=executed, predicted=True,
        )
        self._record_activation_counters(ctx, block_idx, executed)

        weights = Router.renormalize(pred_logits, np.asarray(executed))
        precomputed: dict[int, tuple[np.ndarray, Op]] = {}
        calls: list[ExpertCall] = []
        call_slots: list[int] = []
        for slot, expert in enumerate(executed):
            expert = int(expert)
            if expert in cpu_results:
                precomputed[slot] = cpu_results[expert]
            elif ctx.residency.placement.is_on_gpu(block_idx, expert):
                pending = ctx.residency.pending.pop((block_idx, expert), None)
                gpu_deps = (attn_op,) + ((pending,) if pending else ())
                calls.append(ExpertCall(
                    expert=expert, location=GPU_LOC, h_att=h_att,
                    deps=gpu_deps,
                ))
                call_slots.append(slot)
            else:
                # Predicted CPU expert whose pre-calculation was not issued
                # (e.g. degradation disabled and more CPU experts than
                # pre-calc slots): fall back to a Fiddler-style round-trip
                # with fresh inputs.
                calls.append(ExpertCall(
                    expert=expert, location=CPU_LOC, h_att=h_att,
                    deps=(attn_op,),
                ))
                call_slots.append(slot)
        results = yield BlockWork(block_idx=block_idx, calls=tuple(calls))
        outs = np.zeros(
            (1, len(executed), h_att.shape[1]), dtype=np.float32
        )
        expert_ops: list[Op | None] = [None] * len(executed)
        for slot, (y, op) in precomputed.items():
            outs[0, slot] = y
            expert_ops[slot] = op
        for slot, (y, op) in zip(call_slots, results):
            outs[0, slot] = y[0]
            expert_ops[slot] = op
        h = block.combine(h_att, outs, weights.reshape(1, -1))
        return h, expert_ops


def build_daop(
    bundle: ModelBundle,
    platform: Platform,
    expert_cache_ratio: float = 0.5,
    calibration_probs: np.ndarray | None = None,
    **kwargs,
) -> DAOPEngine:
    """Convenience constructor used by examples and benchmarks."""
    return DAOPEngine(
        bundle, platform,
        cache_config=CacheConfig(ecr=expert_cache_ratio),
        calibration_probs=calibration_probs,
        **kwargs,
    )
