"""Sequence-specific expert allocation (paper Algorithm 1).

During prefill, each block's router tells us how many prompt tokens each
expert attracts for *this particular sequence*.  The most active
CPU-resident experts are paired with the least active GPU-resident experts
and swapped when the CPU expert's activity exceeds the GPU expert's by the
``SwapInOut`` threshold (1.05 in the paper), so near-ties do not trigger
pointless migrations.  Migration is restricted to the prefill phase; the
resulting placement is held fixed throughout decode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memory.placement import ExpertPlacement

SWAP_IN_OUT_DEFAULT = 1.05


@dataclass(frozen=True)
class SwapPlan:
    """One planned swap: ``hot_expert`` in (to GPU), ``cold_expert`` out."""

    block: int
    hot_expert: int
    cold_expert: int
    hot_activity: float
    cold_activity: float


def plan_block_swaps(
    block_idx: int,
    activity: np.ndarray,
    placement: ExpertPlacement,
    swap_threshold: float = SWAP_IN_OUT_DEFAULT,
) -> list[SwapPlan]:
    """Algorithm 1 lines 5-13 for one block.

    Args:
        block_idx: the block being (re)allocated.
        activity: per-expert token counts from this block's gate over the
            prompt (the expert's "activity level", Alg. 1 lines 7-8).
        placement: current placement; not mutated here.
        swap_threshold: the paper's ``SwapInOut`` comparison threshold.

    Returns:
        Swap plans in pairing order (hottest CPU expert against coldest
        GPU expert first).
    """
    activity = np.asarray(activity, dtype=np.float64)
    if activity.ndim != 1 or activity.size != placement.n_experts:
        raise ValueError("activity must be a per-expert 1-D vector")
    if swap_threshold <= 0:
        raise ValueError("swap_threshold must be positive")

    swap_num = placement.n_experts // 2  # SwapNum = 0.5 * numExperts
    gpu_experts = placement.gpu_experts(block_idx)
    cpu_experts = placement.cpu_experts(block_idx)
    if gpu_experts.size == 0 or cpu_experts.size == 0:
        return []

    # Hottest CPU experts, descending activity (Alg. 1 line 7).
    hot_order = cpu_experts[np.argsort(-activity[cpu_experts], kind="stable")]
    hot = hot_order[:swap_num]
    # Coldest GPU experts, ascending activity (Alg. 1 line 8).
    cold_order = gpu_experts[np.argsort(activity[gpu_experts], kind="stable")]
    cold = cold_order[:swap_num]

    plans: list[SwapPlan] = []
    for hot_expert, cold_expert in zip(hot, cold):
        hot_act = float(activity[hot_expert])
        cold_act = float(activity[cold_expert])
        if hot_act >= swap_threshold * cold_act and hot_act > 0:
            plans.append(
                SwapPlan(
                    block=block_idx,
                    hot_expert=int(hot_expert),
                    cold_expert=int(cold_expert),
                    hot_activity=hot_act,
                    cold_activity=cold_act,
                )
            )
    return plans


def activity_from_routing(experts: np.ndarray, n_experts: int) -> np.ndarray:
    """Token counts per expert from a routing matrix ``(n_tokens, top_k)``."""
    counts = np.zeros(n_experts, dtype=np.float64)
    np.add.at(counts, np.asarray(experts).ravel(), 1.0)
    return counts
