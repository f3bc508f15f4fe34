"""Planted defects against the substrate's runtime contracts.

Lane order and prefill-only migration are checked on finished results
by :mod:`repro.audit.invariants`; the per-block slot budget is enforced
on every admission by :class:`repro.memory.Residency`.  Each test plants
one defect and shows where it is caught.
"""

from types import SimpleNamespace

import pytest

from repro.audit import (
    AuditReport,
    audit_generation,
    audit_result,
    check_timeline_causality,
    expects_prefill_only_uploads,
)
from repro.core import build_engine
from repro.core.batching import BlockWork
from repro.core.calibration import calibrate_activation_probs
from repro.core.engine import SequenceRequest
from repro.hardware.timeline import GPU, ResourceClock, Timeline
from repro.memory import ExpertPlacement, Residency
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


def causality_violations(timeline):
    report = AuditReport(engine="planted")
    check_timeline_causality(SimpleNamespace(timeline=timeline), report)
    return [v.message for v in report.violations]


def prefill_only_violations(result):
    report = audit_result(result, prefill_only_uploads=True)
    return [v for v in report.violations
            if v.check == "prefill-only-migration"]


# ---- timeline lane order -------------------------------------------------------


def test_validate_timeline_accepts_engine_schedule(
        tiny_bundle, platform, tiny_calibration, sequence):
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    assert causality_violations(result.timeline) == []


def test_validate_timeline_rejects_lane_overlap():
    timeline = Timeline()
    timeline.add(GPU, 1.0, label="a")
    timeline.add(GPU, 1.0, label="b")
    # Corrupt the lane: second op starts before the first finishes.
    timeline.ops[1].start = 0.25
    timeline.ops[1].end = 1.25
    assert any("overlap" in message
               for message in causality_violations(timeline))


def test_validate_timeline_rejects_span_duration_mismatch():
    timeline = Timeline()
    timeline.add(GPU, 1.0, label="a")
    timeline.ops[0].end = 3.0
    assert any("disagrees with duration" in message
               for message in causality_violations(timeline))


# ---- slot budget ---------------------------------------------------------------


def test_validate_slot_budget():
    placement = ExpertPlacement(2, 4)
    placement._on_gpu[0, :2] = True
    residency = Residency(placement)
    residency.admit(0, 1)  # exactly at budget: already resident
    with pytest.raises(RuntimeError, match="slot"):
        residency.admit(0, 3)
    assert placement.gpu_experts(0).tolist() == [0, 1]
    residency.evict(0, 1)
    residency.admit(0, 3)
    assert placement.gpu_experts(0).tolist() == [0, 3]


def test_slot_budget_checks_the_uploading_sequence(platform):
    """Two sequences on one clock: an over-budget upload is refused by
    the residency of the sequence that uploads, and the other
    sequence's residency is untouched."""
    bundle = build_tiny_moe(seed=0, n_blocks=2)
    calibration = calibrate_activation_probs(
        bundle, n_sequences=2, prompt_len=8, decode_len=4, seed=0)
    engine = build("moe-ondemand", bundle, platform, calibration)
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
    block, expert = next(
        (b, e) for b in range(bundle.arch.n_blocks)
        for e in range(bundle.arch.n_experts)
        if not first.residency.placement.is_on_gpu(b, e)
        and first.residency.capacity[b] > 0
    )
    with pytest.raises(RuntimeError, match="slot"):
        engine._upload_expert(first, block, expert, deps=[])
    for state in (first, second):
        assert state.residency.placement.gpu_count() == budget
    # Freeing a slot in the second sequence admits it there only.
    victim = int(second.residency.placement.gpu_experts(block)[0])
    second.residency.evict(block, victim)
    engine._upload_expert(second, block, expert, deps=[])
    assert second.residency.placement.is_on_gpu(block, expert)
    assert not first.residency.placement.is_on_gpu(block, expert)


def test_daop_generation_conserves_slot_budget(
        tiny_bundle, platform, tiny_calibration, sequence):
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    # Algorithm 1 swaps happened and every block kept its slot count.
    assert result.stats.counters.prefill_swaps > 0
    initial = engine.initial_placement
    for block in range(initial.n_blocks):
        assert result.placement.gpu_count(block) == \
            initial.gpu_count(block)


def test_swap_landed_by_the_upload_stage_is_budget_checked(
        tiny_bundle, platform, tiny_calibration, sequence, monkeypatch):
    """Algorithm 1 swaps land through the cohort driver's upload stage,
    not ``_upload_expert``; a swap that skips its swap-out is refused
    at the admission the upload stage makes, inside ``step``."""
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    state = engine.start(SequenceRequest(
        prompt_tokens=sequence.prompt_tokens, max_new_tokens=DECODE_LEN,
    ))
    monkeypatch.setattr(state.residency, "evict",
                        lambda block, expert: None)
    with pytest.raises(RuntimeError, match="slot") as excinfo:
        engine.step(state)
    assert state.counters.prefill_swaps > 0
    assert any(entry.name == "_land_uploads"
               for entry in excinfo.traceback)


# ---- prefill-only migration ----------------------------------------------------


def test_decode_admission_by_the_upload_stage_trips_contract(
        tiny_bundle, platform, tiny_calibration, sequence):
    """An upload the cohort driver lands during decode is a migration
    too: the prefill-only audit flags it on the finished result, by the
    step that issued it, though its transfer ran before prefill ended."""
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    state = engine.start(SequenceRequest(
        prompt_tokens=sequence.prompt_tokens, max_new_tokens=DECODE_LEN,
    ))
    engine.step(state)
    assert state.phase == "decode"
    placement = state.residency.placement
    block = next(b for b in range(tiny_bundle.arch.n_blocks)
                 if 0 < placement.gpu_count(b) < tiny_bundle.arch.n_experts)
    # Free a slot so only the prefill-only contract is broken.
    state.residency.evict(block, int(placement.gpu_experts(block)[0]))
    expert = int(placement.cpu_experts(block)[-1])
    work = BlockWork(block_idx=block, calls=(), uploads=(expert,))
    n_ops = len(state.timeline.ops)
    engine._execute_block_work_gathered([(state, work)])
    while not state.done:
        engine.step(state)
    result = engine.finish(state)
    upload = result.timeline.ops[n_ops]
    assert upload.kind == "expert_upload"
    assert upload.start < result.stats.prefill_time_s
    flagged = prefill_only_violations(result)
    assert len(flagged) == 1
    assert f"E{expert}@B{block}" in flagged[0].message
    assert "issued during decode" in flagged[0].message


def test_paper_daop_never_migrates_during_decode(
        tiny_bundle, platform, tiny_calibration, sequence):
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    assert expects_prefill_only_uploads(engine)
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    assert result.stats.counters.decode_swaps == 0
    report = audit_generation(engine, result)
    assert "prefill-only-migration" in report.checks_run
    assert report.ok, report.format()


def test_baseline_migrating_during_decode_trips_contract(
        tiny_bundle, platform, tiny_calibration, sequence):
    # MoE-OnDemand uploads every miss during decode; holding it to the
    # prefill-only promise flags those uploads.
    engine = build("moe-ondemand", tiny_bundle, platform,
                   tiny_calibration)
    assert not expects_prefill_only_uploads(engine)
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    assert prefill_only_violations(result)


def test_decode_realloc_engine_is_not_auto_guarded(
        tiny_bundle, platform, tiny_calibration, sequence):
    # The decode-reallocation extension legitimately migrates during
    # decode, so the engine-derived audit does not hold it to
    # prefill-only migration.
    engine = build("daop", tiny_bundle, platform, tiny_calibration,
                   decode_realloc_interval=2,
                   decode_realloc_min_activity=0.0,
                   decode_realloc_threshold=1.01)
    assert not expects_prefill_only_uploads(engine)
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    assert result.tokens.shape == (DECODE_LEN,)
    report = audit_generation(engine, result)
    assert "prefill-only-migration" not in report.checks_run
    assert report.ok, report.format()
