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
from dataclasses import dataclass, field

import numpy as np

from repro.core.allocation import SWAP_IN_OUT_DEFAULT, plan_block_swaps
from repro.core.batching import CPU_LOC, GPU_LOC, BlockWork, ExpertCall
from repro.core.engine import BaseEngine, BlockPlan, SequenceState
from repro.core.precalc import apply_graceful_degradation
from repro.core.predictor import (
    PREDICTION_START_BLOCK_DEFAULT,
    NextLayerPredictor,
)
from repro.hardware.platform import Platform
from repro.hardware.timeline import GPU, Op
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
        pending_uploads: in-flight decode-migration uploads keyed by
            ``(block, expert)``.
    """

    window: deque
    steps: int = 0
    pending_uploads: dict = field(default_factory=dict)


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
        """See class docstring; the last two arguments enable the
        decode-phase re-allocation extension.

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
        self.predictor = NextLayerPredictor(
            self.model, start_block=prediction_start_block
        )
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
        # Window and pending-upload map are used only when the decode
        # re-allocation extension is enabled; they live on the sequence
        # state so interleaved sequences never share migration state.
        ctx.policy = _DAOPSequencePolicy(
            window=deque(maxlen=self.decode_realloc_window)
        )

    def _policy_state_dict(self, state):
        policy = state.policy
        return {
            "window": [encode_array(counts) for counts in policy.window],
            "steps": policy.steps,
            "pending_uploads": [
                [block, expert, op.index]
                for (block, expert), op in policy.pending_uploads.items()
            ],
        }

    def _restore_policy(self, state, payload):
        state.policy = _DAOPSequencePolicy(
            window=deque(
                (decode_array(counts) for counts in payload["window"]),
                maxlen=self.decode_realloc_window,
            ),
            steps=int(payload["steps"]),
            pending_uploads={
                (int(block), int(expert)): state.timeline.ops[int(idx)]
                for block, expert, idx in payload["pending_uploads"]
            },
        )

    @property
    def pending_upload_keys(self) -> tuple[tuple[int, int], ...]:
        """In-flight decode-migration uploads as ``(block, expert)`` keys.

        Deprecated view of the most recently started sequence (like
        :attr:`BaseEngine.placement`); every key must name a
        GPU-resident expert, since a swap-out purges its pending upload
        (audited by :mod:`repro.audit.invariants`).
        """
        if self._active_state is None or self._active_state.policy is None:
            return ()
        return tuple(sorted(self._active_state.policy.pending_uploads))

    # ---- prefill: Algorithm 1 ---------------------------------------------------

    def _prepare_prefill_block(self, ctx: SequenceState, block_idx: int,
                               activated: np.ndarray, activity: np.ndarray,
                               deps: list[Op]) -> BlockPlan:
        if not self.enable_seq_allocation:
            return BlockPlan()
        plans = plan_block_swaps(
            block_idx, activity, ctx.placement, self.swap_threshold
        )
        extra: dict[int, list[Op]] = {}
        for plan in plans:
            # Read-only inference weights: the outgoing expert's host copy
            # is valid, so the swap costs one H2D upload that overlaps with
            # the ongoing prefill compute.
            self._drop_expert(ctx, block_idx, plan.cold_expert)
            up = self._upload_expert(ctx, block_idx, plan.hot_expert, deps)
            extra[plan.hot_expert] = [up]
            ctx.counters.prefill_swaps += 1
        return BlockPlan(extra_deps=extra)

    # ---- decode: predictive pre-calculation ---------------------------------------

    def _decode_blocks(self, ctx: SequenceState, token: int,
                       deps: list[Op]):
        """DAOP decode policy as a block-work generator.

        Yields one attention request and one
        :class:`~repro.core.batching.BlockWork` per block;
        :meth:`~repro.core.engine.BaseEngine._step_cohort` evaluates the
        requests stacked across a cohort — a predicting block's request
        also names the next block's gate, which the predictor reads —
        and gathers the routed expert executions across the cohort's
        sequences (in a cohort of one, in slot order).  The predictive
        pre-calculation round-trips stay per-sequence — they are policy-
        internal work issued a block early, not routed executions.
        """
        if not self.enable_precalc:
            return (yield from self._decode_blocks_standard(ctx, token, deps))

        h = self.model.embed(np.asarray([token]))
        last_ops = list(deps)
        carry = None  # prediction made at the previous block for this one
        for block_idx in range(self.model.n_blocks):
            predicts = self.predictor.can_predict_from(block_idx)
            h_att, logits, attn_op = yield from self._attention(
                ctx, block_idx, h, last_ops, DECODE,
                (block_idx, block_idx + 1) if predicts else (block_idx,),
            )
            next_carry = (
                self._issue_precalc(ctx, block_idx, h_att, logits[1],
                                    attn_op)
                if predicts else None
            )
            if carry is None:
                h, last_ops = yield from self._true_gated_work(
                    ctx, block_idx, h_att, logits[0], attn_op
                )
            else:
                h, last_ops = yield from self._predicted_work(
                    ctx, block_idx, h_att, logits[0], attn_op, carry
                )
            carry = next_carry
        ctx.position += 1
        done = ctx.timeline.add(
            GPU, 0.0, deps=last_ops, label="decode done", kind="sync"
        )
        self._after_decode_token(ctx, done)
        return h[-1], done

    def _after_decode_token(self, ctx: SequenceState, done: Op) -> None:
        """Decode re-allocation extension hook (no-op when disabled)."""
        if self.decode_realloc_interval is None:
            return
        counts = np.zeros(
            (self.model.n_blocks, self.model.n_experts), dtype=np.float64
        )
        # The current token's events sit at the tail of the trace (one per
        # block, appended by this decode step), so an O(n_blocks) reverse
        # scan collects them without re-reading the whole history.
        for event in reversed(ctx.trace.events):
            if event.phase != DECODE or event.token_pos != ctx.position - 1:
                break
            for expert in event.experts:
                counts[event.block, expert] += 1.0
        policy = ctx.policy
        policy.window.append(counts)
        policy.steps += 1
        if policy.steps % self.decode_realloc_interval != 0:
            return
        window_activity = np.sum(policy.window, axis=0)
        for block_idx in range(self.model.n_blocks):
            plans = plan_block_swaps(
                block_idx, window_activity[block_idx], ctx.placement,
                self.decode_realloc_threshold,
            )
            plans = [
                plan for plan in plans
                if plan.hot_activity >= self.decode_realloc_min_activity
            ][: self.decode_realloc_max_swaps_per_block]
            for plan in plans:
                self._drop_expert(ctx, block_idx, plan.cold_expert)
                # The swapped-out expert's weights are no longer resident:
                # any still-pending upload of it must not survive as a
                # dependency for a future activation.
                policy.pending_uploads.pop((block_idx, plan.cold_expert),
                                           None)
                up = self._upload_expert(
                    ctx, block_idx, plan.hot_expert, [done]
                )
                policy.pending_uploads[(block_idx, plan.hot_expert)] = up
                ctx.counters.decode_swaps += 1

    def _issue_precalc(self, ctx: SequenceState, block_idx: int,
                       h_att: np.ndarray, pred_logits: np.ndarray,
                       attn_op: Op):
        """Predict block ``block_idx + 1`` and start its CPU experts early.

        ``pred_logits`` is block ``block_idx + 1``'s gate evaluated on
        ``h_att`` (from the round's stacked gate call).  Returns the
        carry consumed when the loop reaches the next block:
        ``(executed_experts, predicted_logits, cpu_results)``.
        """
        prediction = self.predictor.from_logits(block_idx, pred_logits[0])
        pred_gate = ctx.timeline.add(
            GPU,
            self.framework_overhead_s
            + self.cost_model.gate_time(self.platform.gpu, 1),
            deps=[attn_op], label=f"pred-gate B{block_idx + 1}", kind="gate",
        )
        degradation = apply_graceful_degradation(
            block_idx + 1,
            prediction.experts,
            prediction.logits,
            ctx.placement,
            max_cpu_experts=self.max_cpu_experts,
            enabled=self.graceful_degradation,
        )
        ctx.counters.degraded_swaps += len(degradation.replaced)
        cpu_results: dict[int, tuple[np.ndarray, Op]] = {}
        for expert in degradation.experts:
            expert = int(expert)
            if ctx.placement.is_on_gpu(block_idx + 1, expert):
                continue
            # Pre-calculate on the CPU from the *current* block's non-MoE
            # hidden states (one block stale -- the paper's approximation).
            y, h2d = self._expert_cpu(
                ctx, block_idx + 1, expert, h_att, [pred_gate],
                stale_input=True,
            )
            cpu_results[expert] = (y[0], h2d)
        return degradation.experts, prediction.logits, cpu_results

    def _true_gated_work(self, ctx: SequenceState, block_idx: int,
                         h_att: np.ndarray, logits: np.ndarray,
                         attn_op: Op):
        """Blocks without a usable prediction run the original gate.

        Generator: yields the block's routed work and returns
        ``(h, expert_ops)``; use via ``yield from``.
        """
        gate_op = self._gate(ctx, block_idx, logits, [attn_op])
        routing = self.model.blocks[block_idx].route_from_logits(logits)
        ctx.trace.record(
            DECODE, block_idx, ctx.position, routing.experts[0],
            executed_experts=routing.experts[0],
        )
        self._record_activation_counters(ctx, block_idx, routing.experts[0])
        extra = self._consume_pending_uploads(ctx, block_idx,
                                              routing.experts[0])
        h, expert_ops = yield from self._routed_block_work(
            ctx, block_idx, h_att, routing.experts, routing.weights,
            [gate_op], extra,
        )
        return h, expert_ops

    def _consume_pending_uploads(self, ctx: SequenceState, block_idx: int,
                                 experts) -> dict[int, list[Op]]:
        """Dependencies on in-flight decode-migration uploads."""
        extra: dict[int, list[Op]] = {}
        for expert in np.atleast_1d(experts):
            pending = ctx.policy.pending_uploads.pop(
                (block_idx, int(expert)), None
            )
            if pending is not None:
                extra[int(expert)] = [pending]
        return extra

    def _predicted_work(self, ctx: SequenceState, block_idx: int,
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
            elif ctx.placement.is_on_gpu(block_idx, expert):
                pending = ctx.policy.pending_uploads.pop((block_idx, expert),
                                                         None)
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
