"""Cross-sequence gathering: the block-work protocol.

The engines' decode policies (true-gated, predictive pre-calculation,
prefetch-ahead) and the shared prefill pass are all expressed as
generators that *describe* each block's work instead of executing it
inline (:meth:`~repro.core.engine.BaseEngine._decode_blocks`,
:meth:`~repro.core.engine.BaseEngine._prefill_blocks`).  Per block, a
generator yields an :class:`AttentionRequest` (the block's attention
input and the gates that read its output), then a :class:`BlockWork`
(its routed expert executions).  One step body,
:meth:`~repro.core.engine.BaseEngine._step_cohort`, runs a same-phase
cohort of sequences block-locked: every member's attention and gate
rows of a round are evaluated as stacked calls, and expert calls from
*different sequences* that target the same ``(block, expert, device)``
are grouped into one simulated kernel whose cost follows the hardware
batch-efficiency curves
(:meth:`~repro.hardware.cost_model.CostModel.batch_efficiency`).  Each
participant's functional values are evaluated through the cache-aware
stacked stage API (:meth:`~repro.model.moe_block.MoEBlock.
attention_rows`, :meth:`~repro.model.moe_block.MoEBlock.
gate_logits_rows`, :meth:`~repro.model.moe_block.MoEBlock.
expert_forward_rows`), which keeps every member's bytes identical to a
solo evaluation, so the token stream is identical to a solo run token
for token.  A solo step (:meth:`~repro.core.engine.BaseEngine.step`) is
a cohort of one: every stack and every group has one member, and the
calls run in the order the policy yielded them.

This module holds the protocol's data types; the step body lives on
:class:`~repro.core.engine.BaseEngine` so it shares the engines'
substrate (cost model, timeline, counters) under the same lint contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.hardware.timeline import Op

#: Execution locations an :class:`ExpertCall` may name.
GPU_LOC = "gpu"
CPU_LOC = "cpu"


@dataclass(frozen=True)
class ExpertCall:
    """One routed expert execution requested by a block-work generator.

    Attributes:
        expert: expert id within the block.
        location: where the expert's weights reside for this execution
            (``"gpu"`` or ``"cpu"``); CPU calls pay the activation
            round-trip.
        h_att: the sequence's post-attention hidden states ``(n, d)``
            (borrowed, never mutated).
        deps: ops this execution must wait for — all from the *own*
            sequence's timeline (gate, uploads, pre-calc round-trips).
        token_idx: optional row selection of ``h_att`` exactly as in
            :meth:`~repro.model.moe_block.MoEBlock.expert_forward`.
    """

    expert: int
    location: str
    h_att: np.ndarray
    deps: tuple[Op, ...]
    token_idx: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        """Token rows this call feeds through the expert."""
        if self.token_idx is None:
            return int(np.atleast_2d(self.h_att).shape[0])
        return int(len(self.token_idx))


class AttentionRequest(NamedTuple):
    """One sequence's attention and gate inputs for one block.

    Yielded by a block-work generator (through
    :meth:`~repro.core.engine.BaseEngine._attention`) before the
    block's :class:`BlockWork`.  The driver evaluates every cohort
    member's request of a round as stacked calls and sends back
    ``(h_att, logits)``: the post-attention states and one gate-logits
    array per entry of ``gate_blocks``.

    Attributes:
        block_idx: the block whose attention runs (its KV cache is the
            sequence's ``caches[block_idx]``).
        h: the block's input hidden states ``(n, d)``.
        positions: absolute positions of the ``n`` rows, ascending.
        gate_blocks: blocks whose gate reads ``h_att``, ascending: the
            own block, plus the next one when a layer-ahead predictor
            reads it.

    A named tuple: one is built per sequence per block.
    """

    block_idx: int
    h: np.ndarray
    positions: np.ndarray
    gate_blocks: tuple[int, ...]


@dataclass(frozen=True)
class BlockWork:
    """All routed expert executions one sequence requests for one block.

    Yielded by an engine's ``_decode_blocks`` or ``_prefill_blocks``
    generator after the block's :class:`AttentionRequest`; the driver
    sends back a list of ``(output, op)`` pairs
    aligned with ``calls``.  ``calls`` may be empty (every selected
    expert was pre-calculated) — the yield still happens so all
    sequences advance block-locked.
    """

    block_idx: int
    calls: tuple[ExpertCall, ...]


@dataclass
class GatherStats:
    """Physical-kernel accounting of gathered execution.

    One *logical* op is one sequence's share of a stage (what the
    per-sequence timelines and counters record); one *physical* kernel
    is one gathered launch serving every participant at once.  The gap
    between the two is the amortization cohorts buy.  Every cohort
    counts, a cohort of one included: a singleton prefill cohort
    records one kernel per op.

    ``expert_*`` and ``lm_head_*`` are whole-run totals across both
    phases; the ``prefill_*`` fields split out the gathered-prefill
    share (decode's share is the difference, exposed as the
    ``decode_*`` properties).  ``attn_*`` and ``gate_*`` count the
    non-MoE stages of prefill cohorts (the only ones priced as shared
    launches).
    """

    expert_ops: int = 0
    expert_kernels: int = 0
    gathered_rows: int = 0
    lm_head_ops: int = 0
    lm_head_kernels: int = 0
    max_group_size: int = 0
    attn_ops: int = 0
    attn_kernels: int = 0
    gate_ops: int = 0
    gate_kernels: int = 0
    prefill_expert_ops: int = 0
    prefill_expert_kernels: int = 0
    prefill_lm_head_ops: int = 0
    prefill_lm_head_kernels: int = 0

    @property
    def expert_amortization(self) -> float:
        """Logical expert ops per physical kernel launch (>= 1.0)."""
        if self.expert_kernels == 0:
            return 1.0
        return self.expert_ops / self.expert_kernels

    @property
    def prefill_expert_amortization(self) -> float:
        """Prefill-phase logical expert ops per physical kernel."""
        if self.prefill_expert_kernels == 0:
            return 1.0
        return self.prefill_expert_ops / self.prefill_expert_kernels

    @property
    def decode_expert_ops(self) -> int:
        """Decode-phase share of the logical expert ops."""
        return self.expert_ops - self.prefill_expert_ops

    @property
    def decode_expert_kernels(self) -> int:
        """Decode-phase share of the physical expert kernels."""
        return self.expert_kernels - self.prefill_expert_kernels

    @property
    def decode_expert_amortization(self) -> float:
        """Decode-phase logical expert ops per physical kernel."""
        if self.decode_expert_kernels == 0:
            return 1.0
        return self.decode_expert_ops / self.decode_expert_kernels

    def merge(self, other: "GatherStats") -> None:
        """Fold another accumulator into this one (cross-batch totals)."""
        self.expert_ops += other.expert_ops
        self.expert_kernels += other.expert_kernels
        self.gathered_rows += other.gathered_rows
        self.lm_head_ops += other.lm_head_ops
        self.lm_head_kernels += other.lm_head_kernels
        self.max_group_size = max(self.max_group_size,
                                  other.max_group_size)
        self.attn_ops += other.attn_ops
        self.attn_kernels += other.attn_kernels
        self.gate_ops += other.gate_ops
        self.gate_kernels += other.gate_kernels
        self.prefill_expert_ops += other.prefill_expert_ops
        self.prefill_expert_kernels += other.prefill_expert_kernels
        self.prefill_lm_head_ops += other.prefill_lm_head_ops
        self.prefill_lm_head_kernels += other.prefill_lm_head_kernels

    def phase_stats(self) -> dict:
        """Per-phase (prefill/decode) gathered kernel and op counts, so
        the two regimes' amortization is separable in reports."""
        return {
            "prefill": {
                "expert_ops": self.prefill_expert_ops,
                "expert_kernels": self.prefill_expert_kernels,
                "expert_amortization": self.prefill_expert_amortization,
                "lm_head_ops": self.prefill_lm_head_ops,
                "lm_head_kernels": self.prefill_lm_head_kernels,
                "attn_ops": self.attn_ops,
                "attn_kernels": self.attn_kernels,
                "gate_ops": self.gate_ops,
                "gate_kernels": self.gate_kernels,
            },
            "decode": {
                "expert_ops": self.decode_expert_ops,
                "expert_kernels": self.decode_expert_kernels,
                "expert_amortization": self.decode_expert_amortization,
                "lm_head_ops": self.lm_head_ops - self.prefill_lm_head_ops,
                "lm_head_kernels": (
                    self.lm_head_kernels - self.prefill_lm_head_kernels
                ),
            },
        }

    def to_state_dict(self) -> dict:
        """Serialize the accumulator for a checkpoint."""
        return {
            "expert_ops": self.expert_ops,
            "expert_kernels": self.expert_kernels,
            "gathered_rows": self.gathered_rows,
            "lm_head_ops": self.lm_head_ops,
            "lm_head_kernels": self.lm_head_kernels,
            "max_group_size": self.max_group_size,
            "attn_ops": self.attn_ops,
            "attn_kernels": self.attn_kernels,
            "gate_ops": self.gate_ops,
            "gate_kernels": self.gate_kernels,
            "prefill_expert_ops": self.prefill_expert_ops,
            "prefill_expert_kernels": self.prefill_expert_kernels,
            "prefill_lm_head_ops": self.prefill_lm_head_ops,
            "prefill_lm_head_kernels": self.prefill_lm_head_kernels,
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "GatherStats":
        """Rebuild an accumulator captured by :meth:`to_state_dict`.

        Pre-gathered-prefill checkpoints lack the per-stage fields;
        they default to zero, which reads as "nothing gathered".
        """
        return cls(**{key: int(value) for key, value in payload.items()})


def group_block_work(works: list) -> dict:
    """Group calls across sequences by ``(block, expert, location)``.

    Args:
        works: list of ``BlockWork`` items, one per sequence, in
            admission order.

    Returns:
        Mapping from ``(block_idx, expert, location)`` to the list of
        ``(work_index, call_index)`` participants, insertion-ordered by
        sequence then call (first-request order) — the stable ordering
        that keeps gathered execution deterministic and lets a cohort of
        one run its calls in the order its policy yielded them.
    """
    groups: dict = {}
    for i, work in enumerate(works):
        for j, call in enumerate(work.calls):
            key = (work.block_idx, call.expert, call.location)
            groups.setdefault(key, []).append((i, j))
    return groups
