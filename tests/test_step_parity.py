"""Step-machine parity: start/step/finish reproduces generate() exactly.

The refactor's acceptance criterion: for every registered engine, one
sequence driven through the explicit step API — and through the batch-1
continuous-batch scheduler — must be *bitwise* identical to the
monolithic ``generate()`` run: same tokens, same counters, same op
schedule, same makespan.  No tolerance, no approx.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.audit import run_step_parity_audit
from repro.core import ENGINE_NAMES, build_engine
from repro.core.engine import (
    SEQ_DECODE,
    SEQ_DONE,
    SEQ_PREFILL,
    SequenceRequest,
)
from repro.sched import ContinuousBatchScheduler

PROMPT_LEN = 12
MAX_NEW = 6


def _prompt(bundle, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, bundle.vocab.vocab_size, size=PROMPT_LEN,
                        dtype=np.int64)


@pytest.fixture(params=ENGINE_NAMES)
def engine(request, tiny_bundle, platform, tiny_calibration):
    return build_engine(request.param, tiny_bundle, platform,
                        expert_cache_ratio=0.5,
                        calibration_probs=tiny_calibration)


def test_step_loop_is_bitwise_identical_to_generate(engine, tiny_bundle):
    prompt = _prompt(tiny_bundle)
    reference = engine.generate(prompt, MAX_NEW)

    state = engine.start(SequenceRequest(prompt_tokens=prompt,
                                         max_new_tokens=MAX_NEW))
    phases = []
    while not state.done:
        phases.append(state.phase)
        engine.step(state)
    result = engine.finish(state)

    assert phases[0] == SEQ_PREFILL
    assert all(p == SEQ_DECODE for p in phases[1:])
    assert state.phase == SEQ_DONE
    assert np.array_equal(result.tokens, reference.tokens)
    assert result.stats.counters == reference.stats.counters
    assert result.stats.prefill_time_s == reference.stats.prefill_time_s
    assert result.stats.total_time_s == reference.stats.total_time_s
    assert result.timeline.makespan == reference.timeline.makespan
    assert len(result.timeline.ops) == len(reference.timeline.ops)
    for got, want in zip(result.timeline.ops, reference.timeline.ops):
        assert (got.resource, got.kind, got.start, got.end) == \
            (want.resource, want.kind, want.start, want.end)


def test_scheduler_batch1_is_bitwise_identical_to_generate(
        engine, tiny_bundle):
    prompt = _prompt(tiny_bundle)
    reference = engine.generate(prompt, MAX_NEW)

    scheduler = ContinuousBatchScheduler(engine, max_batch=1)
    report = scheduler.run([SequenceRequest(prompt_tokens=prompt,
                                            max_new_tokens=MAX_NEW)])
    assert report.n_sequences == 1
    result = report.records[0].result
    assert np.array_equal(result.tokens, reference.tokens)
    assert result.stats.counters == reference.stats.counters
    assert result.stats.total_time_s == reference.stats.total_time_s
    assert result.timeline.makespan == reference.timeline.makespan


def test_gathered_batch4_matches_solo_runs_token_for_token(
        engine, tiny_bundle):
    """Gathered cross-sequence execution may only change the schedule:
    every sequence in a batch-4 gathered run must reproduce its own solo
    ``generate()`` tokens and counters exactly."""
    prompts = [_prompt(tiny_bundle, seed=s) for s in range(4)]
    references = [engine.generate(p, MAX_NEW) for p in prompts]

    scheduler = ContinuousBatchScheduler(engine, max_batch=4)
    report = scheduler.run([
        SequenceRequest(prompt_tokens=p, max_new_tokens=MAX_NEW, seq_id=i)
        for i, p in enumerate(prompts)
    ])
    assert report.n_sequences == 4
    records = sorted(report.records, key=lambda r: r.seq_id)
    for record, reference in zip(records, references):
        result = record.result
        assert np.array_equal(result.tokens, reference.tokens)
        assert result.stats.counters == reference.stats.counters
    # The batch actually gathered: fewer kernels than logical ops.
    assert report.n_expert_kernels < report.n_expert_ops


def test_step_raises_after_done_and_finish_requires_done(
        engine, tiny_bundle):
    prompt = _prompt(tiny_bundle)
    state = engine.start(SequenceRequest(prompt_tokens=prompt,
                                         max_new_tokens=1))
    with pytest.raises(RuntimeError):
        engine.finish(state)
    engine.step(state)
    assert state.done
    with pytest.raises(RuntimeError):
        engine.step(state)
    engine.finish(state)


def test_step_parity_audit_reports_all_engines_ok(
        tiny_bundle, platform, tiny_calibration):
    report = run_step_parity_audit(
        tiny_bundle, platform,
        max_new_tokens=4,
        calibration_probs=tiny_calibration,
    )
    assert report.ok, report.format()
    assert [c.label for c in report.comparisons] == [
        f"{name}/seed0" for name in ENGINE_NAMES
    ]
    # Every step path's result was invariant-audited.
    for c in report.comparisons:
        assert [path for path, _ in c.audits][:2] == [
            "start/step/finish", "scheduler@1"]
        assert all(audit.ok for _, audit in c.audits)
