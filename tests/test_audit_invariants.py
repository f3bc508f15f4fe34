"""Unit tests for the post-hoc invariant auditor (repro.audit.invariants)."""

import numpy as np
import pytest

from repro.audit import (
    AuditReport,
    audit_generation,
    check_divergence_provenance,
    check_pending_uploads_resident,
    check_prefill_only_migration,
    check_timeline_causality,
    expects_prefill_only_uploads,
)
from repro.core import ENGINE_NAMES, build_engine
from repro.core.engine import SequenceRequest
from repro.sched import ContinuousBatchScheduler
from repro.workloads import C4, SequenceGenerator

PROMPT = 12
DECODE = 6


@pytest.fixture(scope="module")
def prompt(tiny_bundle):
    gen = SequenceGenerator(C4, tiny_bundle.vocab, seed=5)
    return gen.sample_sequence(PROMPT, DECODE, sample_idx=0).prompt_tokens


def generate(name, tiny_bundle, platform, tiny_calibration, prompt):
    engine = build_engine(name, tiny_bundle, platform, 0.5,
                          tiny_calibration)
    return engine, engine.generate(prompt, DECODE)


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_every_engine_audits_clean(name, tiny_bundle, platform,
                                   tiny_calibration, prompt):
    engine, result = generate(name, tiny_bundle, platform,
                              tiny_calibration, prompt)
    report = audit_generation(engine, result, platform=platform)
    assert report.ok, report.format()
    assert {"timeline-causality", "counter-conservation",
            "energy-consistency", "divergence-provenance",
            "upload-placement"} <= set(report.checks_run)


def test_counter_corruption_detected(tiny_bundle, platform,
                                     tiny_calibration, prompt):
    engine, result = generate("official", tiny_bundle, platform,
                              tiny_calibration, prompt)
    result.stats.counters.gpu_expert_execs += 1
    report = audit_generation(engine, result)
    assert not report.ok
    assert any(v.check == "counter-conservation"
               for v in report.violations)


def test_causality_corruption_detected(tiny_bundle, platform,
                                       tiny_calibration, prompt):
    engine, result = generate("official", tiny_bundle, platform,
                              tiny_calibration, prompt)
    # Pull a mid-timeline op back before its dependencies finished.
    victim = next(op for op in result.timeline.ops if op.dep_indices)
    victim.start = -1.0
    victim.end = victim.start + victim.duration
    report = AuditReport(engine="doctored")
    check_timeline_causality(result, report)
    assert not report.ok


def test_lane_overlap_detected(tiny_bundle, platform, tiny_calibration,
                               prompt):
    engine, result = generate("official", tiny_bundle, platform,
                              tiny_calibration, prompt)
    gpu_ops = result.timeline.ops_on("gpu")
    # Stretch one op over its lane successor without moving anyone else.
    gpu_ops[0].duration = gpu_ops[-1].end + 1.0
    gpu_ops[0].end = gpu_ops[0].start + gpu_ops[0].duration
    report = AuditReport(engine="doctored")
    check_timeline_causality(result, report)
    assert any("overlap" in v.message for v in report.violations)


def test_unattributed_divergence_detected(tiny_bundle, platform,
                                          tiny_calibration, prompt):
    engine, result = generate("official", tiny_bundle, platform,
                              tiny_calibration, prompt)
    result.trace.record("decode", 0, 99, [0, 1],
                        executed_experts=[2, 3], predicted=False)
    report = AuditReport(engine="doctored")
    check_divergence_provenance(result, report)
    assert any(v.check == "divergence-provenance"
               for v in report.violations)


def test_prefill_phase_prediction_detected(tiny_bundle, platform,
                                           tiny_calibration, prompt):
    engine, result = generate("official", tiny_bundle, platform,
                              tiny_calibration, prompt)
    result.trace.record("prefill", 0, 0, [0, 1], predicted=True)
    report = AuditReport(engine="doctored")
    check_divergence_provenance(result, report)
    assert any("prefill" in v.message for v in report.violations)


def test_decode_upload_flagged_when_prefill_only_promised(
        tiny_bundle, platform, tiny_calibration, prompt):
    """moe-ondemand uploads in decode: fine for it, a violation under
    the prefill-only contract DAOP/official/fiddler promise."""
    engine, result = generate("moe-ondemand", tiny_bundle, platform,
                              tiny_calibration, prompt)
    assert audit_generation(engine, result).ok
    decode_uploads = [
        op for op in result.timeline.ops
        if op.kind == "expert_upload"
        and op.start > result.stats.prefill_time_s
    ]
    assert decode_uploads, "fixture lost its decode-upload behavior"
    report = AuditReport(engine="moe-ondemand")
    check_prefill_only_migration(result, report)
    assert not report.ok


def test_expects_prefill_only_uploads_mapping(tiny_bundle, platform,
                                              tiny_calibration):
    expectations = {
        "official": True, "fiddler": True, "daop": True,
        "moe-ondemand": False, "deepspeed-mii": False,
        "mixtral-offloading": False, "moe-infinity": False,
        "pregated-moe": False,
    }
    for name, expected in expectations.items():
        engine = build_engine(name, tiny_bundle, platform, 0.5,
                              tiny_calibration)
        assert expects_prefill_only_uploads(engine) is expected, name
    from repro.core.daop import DAOPEngine
    from repro.memory.cache import CacheConfig

    realloc = DAOPEngine(tiny_bundle, platform,
                         cache_config=CacheConfig(ecr=0.5),
                         calibration_probs=tiny_calibration,
                         decode_realloc_interval=4)
    assert expects_prefill_only_uploads(realloc) is False


def test_stale_pending_upload_detected():
    class FakePlacement:
        def is_on_gpu(self, block, expert):
            return False

    class FakeResult:
        pending_uploads = ((0, 3),)
        placement = FakePlacement()

    class FakeDAOP:
        decode_realloc_interval = 2

    report = AuditReport(engine="fake")
    check_pending_uploads_resident(FakeDAOP(), FakeResult(), report)
    assert not report.ok
    assert "E3@B0" in report.violations[0].format()


def test_engines_without_pending_uploads_skip_the_check():
    class FakeResult:
        pending_uploads = ((0, 3),)
        placement = None

    # Only swap-issued (DAOP) pending uploads are audited; a prefetching
    # baseline's unconsumed prefetch may name an evicted expert.
    report = AuditReport(engine="plain")
    check_pending_uploads_resident(object(), FakeResult(), report)
    assert report.ok
    assert "pending-uploads-resident" in report.checks_run


def test_batched_audit_reads_the_audited_sequence(tiny_bundle, platform,
                                                  tiny_calibration):
    """Each result carries its own sequence's pending uploads.

    Two DAOP sequences share one scheduler; a stale pending key planted
    only in the first-started sequence must be flagged on that
    sequence's result and not on the other's (the last-started one,
    whose view an engine-level audit would have read).
    """
    engine = build_engine("daop", tiny_bundle, platform, 0.5,
                          tiny_calibration)
    gen = SequenceGenerator(C4, tiny_bundle.vocab, seed=5)
    requests = [
        SequenceRequest(
            prompt_tokens=gen.sample_sequence(
                PROMPT, DECODE, sample_idx=i).prompt_tokens,
            max_new_tokens=DECODE, seq_id=i,
        )
        for i in range(2)
    ]
    scheduler = ContinuousBatchScheduler(engine, max_batch=2)
    session = scheduler.begin(requests)
    scheduler.tick(session)  # admits both and prefills them together
    assert [entry.state.seq_id for entry in session.active] == [0, 1]
    first = session.active[0].state
    # The last block runs on a prediction, which never consumes a
    # pending upload of a CPU-resident expert: the key survives.
    block = tiny_bundle.model.n_blocks - 1
    expert = int(first.residency.placement.cpu_experts(block)[0])
    first.residency.pending[block, expert] = first.timeline.ops[-1]
    while scheduler.tick(session):
        pass
    results = {record.seq_id: record.result
               for record in scheduler.finish(session).records}
    assert (block, expert) in results[0].pending_uploads
    stale = audit_generation(engine, results[0])
    assert not stale.ok
    assert f"E{expert}@B{block}" in stale.format()
    assert audit_generation(engine, results[1]).ok


def test_report_format_mentions_engine_and_violations():
    report = AuditReport(engine="x")
    report.checks_run.append("some-check")
    report.add("some-check", "broken thing")
    text = report.format()
    assert "audit[x]" in text
    assert "broken thing" in text


def test_energy_corruption_detected(tiny_bundle, platform,
                                    tiny_calibration, prompt):
    engine, result = generate("official", tiny_bundle, platform,
                              tiny_calibration, prompt)
    result.stats.total_time_s = result.stats.total_time_s * 2.0
    report = audit_generation(engine, result)
    assert any(v.check == "energy-consistency"
               for v in report.violations)


def test_daop_predictions_survive_audit(tiny_bundle, platform,
                                        tiny_calibration, prompt):
    """DAOP's predicted events (executed != selected) are not violations."""
    engine, result = generate("daop", tiny_bundle, platform,
                              tiny_calibration, prompt)
    predicted = [e for e in result.trace.events if e.predicted]
    assert predicted, "DAOP run recorded no predicted events"
    report = audit_generation(engine, result, platform=platform)
    assert report.ok, report.format()


def test_audit_is_pure(tiny_bundle, platform, tiny_calibration, prompt):
    """Auditing twice gives the same verdict and mutates nothing."""
    engine, result = generate("daop", tiny_bundle, platform,
                              tiny_calibration, prompt)
    tokens_before = np.array(result.tokens, copy=True)
    first = audit_generation(engine, result, platform=platform)
    second = audit_generation(engine, result, platform=platform)
    assert first.ok and second.ok
    assert first.checks_run == second.checks_run
    np.testing.assert_array_equal(result.tokens, tokens_before)
