"""Continuous-batch scheduler: admission, cohorts, reports, audits."""

from __future__ import annotations

import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import build_engine
from repro.core.engine import SequenceRequest
from repro.hardware.timeline import ResourceClock, Timeline
from repro.sched import BatchReport, ContinuousBatchScheduler

PROMPT_LEN = 10
MAX_NEW = 5
N_REQUESTS = 4


def _requests(bundle, n=N_REQUESTS, seed=7):
    rng = np.random.default_rng(seed)
    return [
        SequenceRequest(
            prompt_tokens=rng.integers(0, bundle.vocab.vocab_size,
                                       size=PROMPT_LEN, dtype=np.int64),
            max_new_tokens=MAX_NEW,
            seq_id=i,
        )
        for i in range(n)
    ]


@pytest.fixture()
def daop(tiny_bundle, platform, tiny_calibration):
    return build_engine("daop", tiny_bundle, platform,
                        expert_cache_ratio=0.5,
                        calibration_probs=tiny_calibration)


@pytest.fixture()
def fiddler(tiny_bundle, platform, tiny_calibration):
    return build_engine("fiddler", tiny_bundle, platform,
                        expert_cache_ratio=0.5,
                        calibration_probs=tiny_calibration)


def test_max_batch_must_be_positive(daop):
    with pytest.raises(ValueError):
        ContinuousBatchScheduler(daop, max_batch=0)


def test_arrival_times_length_checked(daop, tiny_bundle):
    scheduler = ContinuousBatchScheduler(daop, max_batch=2)
    with pytest.raises(ValueError):
        scheduler.run(_requests(tiny_bundle, n=2), np.zeros(3))


def test_batch1_tiles_makespan_exactly(daop, tiny_bundle):
    """Sequential service: spans are disjoint and sum to the makespan."""
    report = ContinuousBatchScheduler(daop, max_batch=1).run(
        _requests(tiny_bundle)
    )
    assert report.n_sequences == N_REQUESTS
    assert report.overlap_ratio == 0.0
    assert report.makespan_s == pytest.approx(
        report.sum_solo_makespans_s, rel=1e-12
    )
    ordered = sorted(report.records, key=lambda r: r.service_start_s)
    for earlier, later in zip(ordered, ordered[1:]):
        assert later.service_start_s >= earlier.finish_s - 1e-12


def test_batch4_overlaps_sequences(fiddler, tiny_bundle):
    """Acceptance: batch makespan < sum of per-sequence service spans."""
    report = ContinuousBatchScheduler(fiddler, max_batch=4).run(
        _requests(tiny_bundle)
    )
    assert report.makespan_s < report.sum_solo_makespans_s
    assert report.overlap_ratio > 0.25
    # Concurrent residency: some sequence starts before another ends.
    ordered = sorted(report.records, key=lambda r: r.service_start_s)
    assert any(later.service_start_s < earlier.finish_s
               for earlier, later in zip(ordered, ordered[1:]))


def test_batching_improves_mean_ttft(daop, tiny_bundle):
    solo = ContinuousBatchScheduler(daop, max_batch=1).run(
        _requests(tiny_bundle)
    )
    batched = ContinuousBatchScheduler(daop, max_batch=4).run(
        _requests(tiny_bundle)
    )
    assert batched.mean_ttft_s() < solo.mean_ttft_s()
    # Same tokens generated either way (per-sequence state isolation).
    for a, b in zip(solo.records, batched.records):
        assert np.array_equal(a.result.tokens, b.result.tokens)


def test_scheduler_is_deterministic(daop, tiny_bundle):
    first = ContinuousBatchScheduler(daop, max_batch=3).run(
        _requests(tiny_bundle)
    )
    second = ContinuousBatchScheduler(daop, max_batch=3).run(
        _requests(tiny_bundle)
    )
    assert first.to_json() == second.to_json()


def test_arrivals_gate_admission(daop, tiny_bundle):
    """A request arriving after the batch drains waits for its arrival."""
    requests = _requests(tiny_bundle, n=2)
    late = 1e6
    report = ContinuousBatchScheduler(daop, max_batch=2).run(
        requests, np.array([0.0, late])
    )
    by_id = {r.seq_id: r for r in report.records}
    assert by_id[0].service_start_s == 0.0
    assert by_id[1].service_start_s >= late
    assert by_id[1].queue_delay_s == pytest.approx(0.0, abs=1e-9)


def test_scheduler_results_pass_invariant_audit(
        daop, tiny_bundle, audit_result):
    """Acceptance: repro audit passes on scheduler-produced results."""
    report = ContinuousBatchScheduler(daop, max_batch=4).run(
        _requests(tiny_bundle)
    )
    for record in report.records:
        audit_result(daop, record.result)


def test_batch_report_json_shape(fiddler, tiny_bundle):
    report = ContinuousBatchScheduler(fiddler, max_batch=2).run(
        _requests(tiny_bundle)
    )
    payload = json.loads(report.to_json())
    assert payload["engine"] == "fiddler"
    assert payload["max_batch"] == 2
    assert payload["n_sequences"] == N_REQUESTS
    assert set(payload["occupancy"]) == {"gpu", "cpu", "h2d", "d2h"}
    assert len(payload["sequences"]) == N_REQUESTS
    assert [s["seq_id"] for s in payload["sequences"]] == [0, 1, 2, 3]


def test_empty_run_is_a_clean_report(daop):
    report = ContinuousBatchScheduler(daop, max_batch=2).run([])
    assert isinstance(report, BatchReport)
    assert report.n_sequences == 0
    assert report.makespan_s == 0.0
    assert report.overlap_ratio == 0.0
    assert report.occupancy("gpu") == 0.0


# ---- overlap_ratio degenerate inputs (zero spans, idle gaps) -----------------


def _stub_record(arrival_s, finish_s, span_s, n_generated=1):
    """Minimal SequenceRecord stand-in for report-math tests."""
    stats = SimpleNamespace(total_time_s=span_s)
    result = SimpleNamespace(stats=stats)
    return SimpleNamespace(
        arrival_s=arrival_s, finish_s=finish_s,
        n_generated=n_generated, result=result,
    )


def test_overlap_ratio_zero_for_empty_batch():
    report = BatchReport(engine="stub", max_batch=2)
    assert report.overlap_ratio == 0.0
    assert report.throughput_tokens_per_s == 0.0


def test_overlap_ratio_zero_for_zero_duration_sequences():
    """All-zero service spans must yield 0.0, not a division by zero."""
    report = BatchReport(engine="stub", max_batch=2, records=[
        _stub_record(arrival_s=0.0, finish_s=0.0, span_s=0.0),
        _stub_record(arrival_s=0.0, finish_s=0.0, span_s=0.0),
    ])
    assert report.sum_solo_makespans_s == 0.0
    assert report.overlap_ratio == 0.0


def test_overlap_ratio_clamped_under_sparse_arrivals():
    """Idle arrival gaps inflate the makespan past the summed spans;
    the ratio clamps to 0.0 instead of going negative."""
    report = BatchReport(engine="stub", max_batch=1, records=[
        _stub_record(arrival_s=0.0, finish_s=1.0, span_s=1.0),
        _stub_record(arrival_s=100.0, finish_s=101.0, span_s=1.0),
    ])
    assert report.makespan_s == pytest.approx(101.0)
    assert report.sum_solo_makespans_s == pytest.approx(2.0)
    assert report.overlap_ratio == 0.0


def test_overlap_ratio_clamped_end_to_end(daop, tiny_bundle):
    """Scheduler-produced reports stay in [0, 1) even with idle gaps."""
    requests = _requests(tiny_bundle, n=2)
    report = ContinuousBatchScheduler(daop, max_batch=2).run(
        requests, np.array([0.0, 1e6])
    )
    assert 0.0 <= report.overlap_ratio < 1.0


# ---- round-robin fairness: every active sequence steps once per round --------


class _StepCountingEngine:
    """Wraps an engine, counting batched/solo step invocations per seq_id."""

    def __init__(self, engine):
        self._engine = engine
        self.step_counts = Counter()

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def step(self, state):
        self.step_counts[state.seq_id] += 1
        return self._engine.step(state)

    def step_batch(self, states, gather_stats=None):
        for state in states:
            self.step_counts[state.seq_id] += 1
        return self._engine.step_batch(states, gather_stats=gather_stats)

    def step_prefill_batch(self, states, gather_stats=None):
        for state in states:
            self.step_counts[state.seq_id] += 1
        return self._engine.step_prefill_batch(
            states, gather_stats=gather_stats
        )


def test_every_active_sequence_steps_once_per_round(fiddler, tiny_bundle):
    """Mid-round finishes must never skip or double-step a survivor.

    Each sequence needs exactly ``max_new_tokens`` step units (one
    prefill + the decode tokens); heterogeneous lengths force sequences
    to retire mid-batch while others continue.
    """
    rng = np.random.default_rng(11)
    lengths = [2, 5, 3, 7]
    requests = [
        SequenceRequest(
            prompt_tokens=rng.integers(0, tiny_bundle.vocab.vocab_size,
                                       size=PROMPT_LEN, dtype=np.int64),
            max_new_tokens=n,
            seq_id=i,
        )
        for i, n in enumerate(lengths)
    ]
    counting = _StepCountingEngine(fiddler)
    report = ContinuousBatchScheduler(counting, max_batch=4).run(requests)
    assert report.n_sequences == len(lengths)
    assert dict(counting.step_counts) == {
        i: n for i, n in enumerate(lengths)
    }
    for record in report.records:
        assert record.n_generated == lengths[record.seq_id]


# ---- gathered cross-sequence execution ---------------------------------------


def _interleaved(engine, requests, max_batch):
    """Reference schedule: independent ``step`` calls on a shared clock.

    Requests (all arriving at t=0, equal lengths) are served in waves
    of ``max_batch``; within a wave every sequence steps alone,
    round-robin in admission order.  Returns ``(results, makespan)``.
    """
    clock = ResourceClock()
    results = []
    for first in range(0, len(requests), max_batch):
        states = [engine.start(request, timeline=Timeline(clock=clock))
                  for request in requests[first:first + max_batch]]
        while not all(state.done for state in states):
            for state in states:
                if not state.done:
                    engine.step(state)
        finish = max(op.end for s in states for op in s.timeline.ops)
        results.extend(engine.finish(state) for state in states)
        clock.advance_all(finish)
    return results, finish


def _op_signature(result) -> list:
    return [(op.resource, op.duration, op.start, op.end, op.kind, op.label)
            for op in result.timeline.ops]


@pytest.mark.parametrize("engine_fixture", ["fiddler", "daop"])
def test_gathered_matches_interleaved_tokens_and_beats_it_on_time(
        engine_fixture, tiny_bundle, request):
    engine = request.getfixturevalue(engine_fixture)
    requests = _requests(tiny_bundle)
    interleaved, interleaved_makespan = _interleaved(engine, requests, 4)
    gathered = ContinuousBatchScheduler(engine, max_batch=4).run(requests)
    # Identical token streams: gathering only changes the schedule.
    for a, b in zip(interleaved, gathered.records):
        assert np.array_equal(a.tokens, b.result.tokens)
        assert a.stats.counters == b.result.stats.counters
    # Acceptance: gathered cohorts are strictly faster at batch 4 and
    # physically launch fewer expert kernels than logical ops.
    assert gathered.makespan_s < interleaved_makespan
    assert gathered.n_expert_kernels < gathered.n_expert_ops
    assert gathered.gather.expert_amortization > 1.0
    assert gathered.gather.max_group_size > 1


def test_gathered_batch1_equals_interleaved_batch1(daop, tiny_bundle):
    """With one resident sequence there is nothing to gather: batch-1
    cohorts must schedule exactly the ops of independent steps."""
    requests = _requests(tiny_bundle, n=2)
    interleaved, interleaved_makespan = _interleaved(daop, requests, 1)
    gathered = ContinuousBatchScheduler(daop, max_batch=1).run(requests)
    assert interleaved_makespan == gathered.makespan_s
    for a, b in zip(interleaved, gathered.records):
        assert np.array_equal(a.tokens, b.result.tokens)
        assert _op_signature(a) == _op_signature(b.result)


def test_gathered_results_pass_invariant_audit(
        fiddler, tiny_bundle, audit_result):
    report = ContinuousBatchScheduler(
        fiddler, max_batch=4
    ).run(_requests(tiny_bundle))
    for record in report.records:
        audit_result(fiddler, record.result)


def test_batch_report_json_carries_kernels(fiddler, tiny_bundle):
    report = ContinuousBatchScheduler(
        fiddler, max_batch=4
    ).run(_requests(tiny_bundle))
    payload = json.loads(report.to_json())
    assert "mode" not in payload
    assert payload["n_expert_kernels"] < payload["n_expert_ops"]
    assert payload["expert_amortization"] > 1.0


# ---- gathered prefill --------------------------------------------------------


def test_singleton_prefill_bucket_is_a_cohort_of_one(daop, tiny_bundle):
    """A lone prompt in its bucket still runs as a (counted) cohort."""
    report = ContinuousBatchScheduler(daop, max_batch=1).run(
        _requests(tiny_bundle, n=2)
    )
    gather = report.gather
    assert gather.prefill_lm_head_kernels == gather.prefill_lm_head_ops == 2
    assert gather.attn_kernels == gather.attn_ops > 0
    assert gather.prefill_expert_kernels == gather.prefill_expert_ops > 0


def test_batch_report_json_carries_phase_stats(fiddler, tiny_bundle):
    report = ContinuousBatchScheduler(
        fiddler, max_batch=4
    ).run(_requests(tiny_bundle))
    payload = json.loads(report.to_json())
    phases = payload["phases"]
    prefill, decode = phases["prefill"], phases["decode"]
    assert prefill["expert_kernels"] < prefill["expert_ops"]
    assert prefill["expert_amortization"] > 1.0
    assert prefill["attn_kernels"] > 0
    assert prefill["gate_kernels"] > 0
    assert prefill["lm_head_kernels"] == 1  # all 4 prompts, one bucket
    assert decode["expert_kernels"] < decode["expert_ops"]
    assert (prefill["expert_ops"] + decode["expert_ops"]
            == payload["n_expert_ops"])


def test_session_checkpoint_rejects_mode_carrying_version_2(daop,
                                                          tiny_bundle):
    """Version-2 checkpoints carry the removed execution-mode fields."""
    from repro.model.serialization import canonical_digest
    from repro.sched.scheduler import SCHED_CHECKPOINT_VERSION

    scheduler = ContinuousBatchScheduler(daop, max_batch=2)
    session = scheduler.begin(_requests(tiny_bundle, n=2))
    scheduler.tick(session)
    payload = scheduler.checkpoint_session(session)
    assert SCHED_CHECKPOINT_VERSION == 3
    assert "mode" not in payload and "gathered_prefill" not in payload
    old = {key: value for key, value in payload.items() if key != "digest"}
    old.update(version=2, mode="gathered", gathered_prefill=True)
    old["digest"] = canonical_digest(old)
    with pytest.raises(ValueError, match="scheduler-checkpoint version 2"):
        scheduler.restore_session(old)
    # The current payload still round-trips through JSON bytes.
    restored = scheduler.restore_session(json.loads(json.dumps(payload)))
    assert len(restored.active) == len(session.active)
