"""The per-block GPU slot budget a Residency enforces on its placement.

A full block refusing an admission is planted in
``tests/test_lint_contracts.py::test_validate_slot_budget``.
"""

import pytest

from repro.core import build_engine
from repro.core.engine import SequenceRequest
from repro.memory import LRU, ExpertPlacement, Residency
from repro.sched import ContinuousBatchScheduler
from repro.workloads import C4, SequenceGenerator


def residency(gpu_counts, n_experts=4):
    """A residency whose block ``b`` holds experts ``0..gpu_counts[b]-1``."""
    placement = ExpertPlacement(len(gpu_counts), n_experts)
    for block, count in enumerate(gpu_counts):
        placement._on_gpu[block, :count] = True
    return Residency(placement)


def test_capacity_is_the_initial_placement_per_block():
    assert residency([2, 0, 4]).capacity == [2, 0, 4]


def test_zero_slot_admit_does_nothing():
    res = residency([0, 1])
    res.admit(0, 2)
    assert res.placement.gpu_count(0) == 0


def test_readmitting_a_resident_expert_does_nothing():
    res = residency([2, 1])
    res.admit(0, 1)
    assert res.placement.gpu_experts(0).tolist() == [0, 1]


def test_capacity_survives_a_state_dict_round_trip():
    res = Residency.seeded(residency([2, 0, 1]).placement, LRU)
    res.evict(0, 0)
    res.admit(0, 3)
    restored = Residency.from_state_dict(res.to_state_dict(), ops=[])
    assert restored.capacity == [2, 0, 1]
    with pytest.raises(RuntimeError, match="slot"):
        restored.admit(2, 3)


# ---- one GPU under continuous batching ---------------------------------------


@pytest.mark.parametrize("name", [
    pytest.param("daop", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP 1(b)")),
    pytest.param("moe-ondemand", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP 1(b)")),
    "fiddler",
])
def test_batched_residents_fit_one_gpu(name, tiny_bundle, platform,
                                       tiny_calibration):
    """The sequences resident together share one GPU, so the union of
    their GPU-resident experts must fit the engine's slot budget.

    Each sequence still owns its own residency, so migrating engines
    hold several disjoint expert sets at once (ROADMAP item 1(b));
    Fiddler never migrates and fits.
    """
    engine = build_engine(name, tiny_bundle, platform,
                          expert_cache_ratio=0.5,
                          calibration_probs=tiny_calibration)
    gen = SequenceGenerator(C4, tiny_bundle.vocab, seed=11)
    requests = [
        SequenceRequest(
            prompt_tokens=gen.sample_sequence(12, 6,
                                              sample_idx=i).prompt_tokens,
            max_new_tokens=6, seq_id=i,
        )
        for i in range(8)
    ]
    scheduler = ContinuousBatchScheduler(engine, max_batch=4)
    session = scheduler.begin(requests)
    budget = engine.initial_placement.gpu_count()
    peak = 0
    while scheduler.tick(session):
        union = None
        for entry in session.active:
            on_gpu = entry.state.residency.placement.as_matrix()
            union = on_gpu if union is None else union | on_gpu
        if union is not None:
            peak = max(peak, int(union.sum()))
    assert peak <= budget, f"{peak} experts resident across the batch, " \
        f"{budget} slots"
