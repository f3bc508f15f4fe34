"""Tests for the runtime contract layer (repro.lint.contracts)."""

import numpy as np
import pytest

from repro.core import build_engine
from repro.core.batching import BlockWork
from repro.core.calibration import calibrate_activation_probs
from repro.core.engine import SequenceRequest
from repro.hardware.timeline import GPU, ResourceClock, Timeline
from repro.lint.contracts import (
    ContractViolation,
    EngineContractGuard,
    validate_slot_budget,
    validate_timeline,
)
from repro.memory.placement import ExpertPlacement
from repro.model.zoo import build_tiny_moe
from repro.workloads import C4, SequenceGenerator

PROMPT_LEN = 12
DECODE_LEN = 6


@pytest.fixture(scope="module")
def sequence(tiny_bundle):
    gen = SequenceGenerator(C4, tiny_bundle.vocab, seed=11)
    return gen.sample_sequence(PROMPT_LEN, DECODE_LEN, sample_idx=0)


def build(name, tiny_bundle, platform, tiny_calibration, **kwargs):
    return build_engine(name, tiny_bundle, platform,
                        expert_cache_ratio=0.5,
                        calibration_probs=tiny_calibration, **kwargs)


# ---- timeline monotonicity -----------------------------------------------------


def test_validate_timeline_accepts_engine_schedule(
        tiny_bundle, platform, tiny_calibration, sequence):
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    validate_timeline(result.timeline)  # must not raise


def test_validate_timeline_rejects_lane_overlap():
    timeline = Timeline()
    first = timeline.add(GPU, 1.0, label="a")
    timeline.add(GPU, 1.0, deps=[first], label="b")
    # Corrupt the lane: second op starts before the first finishes.
    timeline.ops[1].start = 0.25
    timeline.ops[1].end = 1.25
    with pytest.raises(ContractViolation, match="monotonic"):
        validate_timeline(timeline)


def test_validate_timeline_rejects_span_duration_mismatch():
    timeline = Timeline()
    timeline.add(GPU, 1.0, label="a")
    timeline.ops[0].end = 3.0
    with pytest.raises(ContractViolation, match="duration"):
        validate_timeline(timeline)


# ---- slot-budget conservation --------------------------------------------------


def test_validate_slot_budget():
    placement = ExpertPlacement(2, 4)
    placement._on_gpu[0, :2] = True
    validate_slot_budget(placement, 2)  # exactly at budget
    with pytest.raises(ContractViolation, match="budget"):
        validate_slot_budget(placement, 1)


def test_slot_budget_checks_the_uploading_sequence(platform,
                                                  engine_contracts):
    """Two sequences on one clock: an upload is validated against the
    placement of the sequence that uploads, not the last-started one."""
    bundle = build_tiny_moe(seed=0, n_blocks=2)
    calibration = calibrate_activation_probs(
        bundle, n_sequences=2, prompt_len=8, decode_len=4, seed=0)
    engine = build("moe-ondemand", bundle, platform, calibration)
    engine_contracts(engine, prefill_only=False)
    prompt = SequenceGenerator(C4, bundle.vocab, seed=11).sample_sequence(
        8, 2, sample_idx=0).prompt_tokens
    clock = ResourceClock()
    first, second = (
        engine.start(SequenceRequest(prompt_tokens=prompt,
                                     max_new_tokens=2, seq_id=i),
                     timeline=Timeline(clock=clock))
        for i in range(2)
    )
    budget = engine.initial_placement.gpu_count()
    for state in (first, second):
        assert state.residency.placement.gpu_count() == budget
        block, expert = next(
            (b, e) for b in range(bundle.arch.n_blocks)
            for e in range(bundle.arch.n_experts)
            if not state.residency.placement.is_on_gpu(b, e)
        )
        with pytest.raises(ContractViolation, match="slot budget"):
            engine._upload_expert(state, block, expert, deps=[])


def test_daop_generation_conserves_slot_budget(
        tiny_bundle, platform, tiny_calibration, sequence,
        engine_contracts):
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    guard = engine_contracts(engine)
    assert guard.prefill_only  # decode_realloc_interval defaults to None
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    # Algorithm 1 swaps happened and never exceeded the budget.
    assert result.stats.counters.prefill_swaps >= 0
    assert result.placement.gpu_count() <= \
        engine.initial_placement.gpu_count()


def test_swap_landed_by_the_upload_stage_is_budget_checked(
        tiny_bundle, platform, tiny_calibration, sequence,
        engine_contracts, monkeypatch):
    """Algorithm 1 swaps land through the cohort driver's upload stage,
    not ``_upload_expert``; a swap that skips its swap-out must trip the
    slot budget at the admission itself (``step`` is not wrapped)."""
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    engine_contracts(engine)
    monkeypatch.setattr(engine, "_drop_expert",
                        lambda ctx, block_idx, expert: None)
    state = engine.start(SequenceRequest(
        prompt_tokens=sequence.prompt_tokens, max_new_tokens=DECODE_LEN,
    ))
    with pytest.raises(ContractViolation, match="slot budget"):
        engine.step(state)
    assert state.counters.prefill_swaps > 0


# ---- prefill-only migration ----------------------------------------------------


def test_decode_admission_by_the_upload_stage_trips_contract(
        tiny_bundle, platform, tiny_calibration, sequence,
        engine_contracts):
    """An upload the cohort driver lands during decode is a migration
    too: the prefill-only contract trips at its admission."""
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    engine_contracts(engine, slot_budget=False)
    state = engine.start(SequenceRequest(
        prompt_tokens=sequence.prompt_tokens, max_new_tokens=DECODE_LEN,
    ))
    engine.step(state)
    assert state.phase == "decode"
    block, expert = next(
        (b, e) for b in range(tiny_bundle.arch.n_blocks)
        for e in range(tiny_bundle.arch.n_experts)
        if not state.residency.placement.is_on_gpu(b, e)
    )
    work = BlockWork(block_idx=block, calls=(), uploads=(expert,))
    with pytest.raises(ContractViolation, match="prefill"):
        engine._execute_block_work_gathered([(state, work)])


def test_paper_daop_never_migrates_during_decode(
        tiny_bundle, platform, tiny_calibration, sequence,
        engine_contracts):
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    engine_contracts(engine)
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    assert result.stats.counters.decode_swaps == 0


def test_baseline_migrating_during_decode_trips_contract(
        tiny_bundle, platform, tiny_calibration, sequence,
        engine_contracts):
    # MoE-OnDemand uploads every miss during decode; forcing the
    # prefill-only contract onto it must trip at the offending upload.
    engine = build("moe-ondemand", tiny_bundle, platform,
                   tiny_calibration)
    engine_contracts(engine, prefill_only=True, slot_budget=False)
    with pytest.raises(ContractViolation, match="prefill"):
        engine.generate(sequence.prompt_tokens, DECODE_LEN)


def test_decode_realloc_engine_is_not_auto_guarded(
        tiny_bundle, platform, tiny_calibration, sequence,
        engine_contracts):
    # The decode-reallocation extension legitimately migrates during
    # decode, so the auto contract must not fire for it.
    engine = build("daop", tiny_bundle, platform, tiny_calibration,
                   decode_realloc_interval=2,
                   decode_realloc_min_activity=0.0,
                   decode_realloc_threshold=1.01)
    guard = engine_contracts(engine)
    assert not guard.prefill_only
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    assert result.tokens.shape == (DECODE_LEN,)


# ---- guard mechanics -----------------------------------------------------------


def test_guard_detach_restores_engine(
        tiny_bundle, platform, tiny_calibration, sequence):
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    guard = EngineContractGuard(engine)
    guard.attach()
    assert "generate" in engine.__dict__
    guard.detach()
    assert "generate" not in engine.__dict__
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    assert result.tokens.shape == (DECODE_LEN,)


def test_guard_context_manager(
        tiny_bundle, platform, tiny_calibration, sequence):
    engine = build("fiddler", tiny_bundle, platform, tiny_calibration)
    with EngineContractGuard(engine, prefill_only=True) as guard:
        result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
        assert guard.phase == "idle"
    # Fiddler never migrates, so the strictest contract passes.
    assert result.stats.counters.expert_uploads == 0
