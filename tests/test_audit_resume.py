"""Resume-parity audit and per-engine sequence checkpoints.

Two layers of pinning.  The *audit* (`repro.audit.resume`) replays every
engine's generation with a mid-decode checkpoint/restore through real
JSON bytes and demands bitwise parity with the uninterrupted run.  The
*golden digests* below additionally pin each engine's serialized
checkpoint content itself, so a change that alters what an engine
persists (new policy field, changed state layout) is surfaced here even
if it happens to stay resume-consistent — such a change must bump
``SEQUENCE_CHECKPOINT_VERSION`` or knowingly update the goldens.
"""

import json

import numpy as np
import pytest

from repro.audit import run_resume_parity_audit, timeline_signature
from repro.core import ENGINE_NAMES, build_engine
from repro.core.engine import SEQUENCE_CHECKPOINT_VERSION, SequenceRequest
from repro.model.serialization import canonical_digest
from repro.workloads import C4, SequenceGenerator

#: Digest of every engine's sequence checkpoint after three steps of the
#: recipe in :func:`checkpoint_after_three_steps` (fixture model:
#: tiny-MoE seed 0, 8 blocks; calibration seed 0).
GOLDEN_CHECKPOINT_DIGESTS = {
    "official": "120a2be710c6c02c65353d3f6104586b",
    "moe-ondemand": "9c769bffe15dc5ab63690f3b3eccd20d",
    "deepspeed-mii": "472b9165c2b64c802591c4f1c114b53f",
    "mixtral-offloading": "276a54e6b5592befaf3019368748ddbc",
    "moe-infinity": "0b4911c79544fb0f93925e4203431269",
    "fiddler": "6fb44ce1cc0932902cb115defe486432",
    "pregated-moe": "ec7d22097c933d226796c34198809ae4",
    "daop": "8ab4f7bd8025e86496227eb2aaae7a13",
}


def checkpoint_after_three_steps(name, tiny_bundle, platform,
                                 tiny_calibration):
    """Prefill + two decode steps, then checkpoint (fixed recipe)."""
    engine = build_engine(name, tiny_bundle, platform, 0.5,
                          tiny_calibration)
    sequence = SequenceGenerator(C4, tiny_bundle.vocab,
                                 seed=3).sample_sequence(12, 6)
    state = engine.start(SequenceRequest(
        prompt_tokens=sequence.prompt_tokens,
        max_new_tokens=6,
        forced_tokens=sequence.continuation_tokens,
    ))
    for _ in range(3):
        engine.step(state)
    return engine, state, engine.checkpoint_sequence(state)


def test_golden_digests_cover_every_engine():
    assert set(GOLDEN_CHECKPOINT_DIGESTS) == set(ENGINE_NAMES)


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_golden_checkpoint_digest(name, tiny_bundle, platform,
                                  tiny_calibration):
    _, _, payload = checkpoint_after_three_steps(
        name, tiny_bundle, platform, tiny_calibration)
    assert payload["engine"] == name
    assert payload["digest"] == GOLDEN_CHECKPOINT_DIGESTS[name]
    # The payload is genuinely plain data: real JSON bytes round-trip.
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_cohort_of_one_matches_generate_op_for_op(name, tiny_bundle, platform,
                                                 tiny_calibration):
    """A cohort of one is the solo step.

    On the golden recipe, one sequence driven through the cohort entries
    (``step_prefill_batch([s])`` once, then ``step_batch([s])``) must
    checkpoint to the golden digest after three steps and schedule
    exactly the ops of ``generate()``: same order, timing, labels and
    dependency edges.
    """
    engine = build_engine(name, tiny_bundle, platform, 0.5,
                          tiny_calibration)
    sequence = SequenceGenerator(C4, tiny_bundle.vocab,
                                 seed=3).sample_sequence(12, 6)
    reference = engine.generate(sequence.prompt_tokens, 6,
                                forced_tokens=sequence.continuation_tokens)
    state = engine.start(SequenceRequest(
        prompt_tokens=sequence.prompt_tokens,
        max_new_tokens=6,
        forced_tokens=sequence.continuation_tokens,
    ))
    engine.step_prefill_batch([state])
    for _ in range(2):
        engine.step_batch([state])
    payload = engine.checkpoint_sequence(state)
    assert payload["digest"] == GOLDEN_CHECKPOINT_DIGESTS[name]
    while not state.done:
        engine.step_batch([state])
    result = engine.finish(state)

    assert np.array_equal(result.tokens, reference.tokens)
    assert result.stats.to_state_dict() == reference.stats.to_state_dict()
    assert (timeline_signature(result.timeline)
            == timeline_signature(reference.timeline))
    assert ([op.dep_indices for op in result.timeline.ops]
            == [op.dep_indices for op in reference.timeline.ops])


class TestSequenceCheckpointRejection:
    @pytest.fixture()
    def checkpointed(self, tiny_bundle, platform, tiny_calibration):
        return checkpoint_after_three_steps(
            "daop", tiny_bundle, platform, tiny_calibration)

    def test_corrupted_payload_rejected(self, checkpointed):
        engine, _, payload = checkpointed
        doctored = json.loads(json.dumps(payload))
        doctored["state"]["n_generated"] = 99
        with pytest.raises(ValueError, match="corrupted"):
            engine.restore_sequence(doctored)

    def test_version_skew_rejected(self, checkpointed):
        engine, _, payload = checkpointed
        doctored = dict(payload)
        doctored["version"] = 4
        with pytest.raises(ValueError,
                           match="unsupported sequence-checkpoint "
                                 "version 4"):
            engine.restore_sequence(doctored)

    def test_version_1_residency_layout_rejected(self, checkpointed):
        """Version 1 kept a bare ``placement`` and per-engine cache and
        pending-upload payloads; version 2 holds them in one
        ``residency``.  An intact version-1 payload is refused before
        its layout is read."""
        engine, _, payload = checkpointed
        assert SEQUENCE_CHECKPOINT_VERSION == 3
        assert "residency" in payload["state"]
        state = dict(payload["state"])
        residency = state.pop("residency")
        state["placement"] = residency["placement"]
        old = {"version": 1, "engine": payload["engine"], "state": state,
               "policy": {**payload["policy"], "pending_uploads": []}}
        old["digest"] = canonical_digest(old)
        with pytest.raises(ValueError,
                           match="unsupported sequence-checkpoint "
                                 "version 1"):
            engine.restore_sequence(old)

    def test_version_2_extra_layout_rejected(self, checkpointed):
        """Version 2 carried the engine-private ``extra`` scratch dict;
        version 3 drops it.  An intact version-2 payload is refused
        before its layout is read."""
        engine, _, payload = checkpointed
        assert "extra" not in payload["state"]
        old = {"version": 2, "engine": payload["engine"],
               "state": {**payload["state"], "extra": {}},
               "policy": payload["policy"]}
        old["digest"] = canonical_digest(old)
        with pytest.raises(ValueError,
                           match="unsupported sequence-checkpoint "
                                 "version 2"):
            engine.restore_sequence(old)

    def test_foreign_engine_rejected(self, checkpointed, tiny_bundle,
                                     platform, tiny_calibration):
        _, _, payload = checkpointed
        other = build_engine("fiddler", tiny_bundle, platform, 0.5,
                             tiny_calibration)
        with pytest.raises(ValueError, match="cannot resume on"):
            other.restore_sequence(payload)

    def test_restore_accepts_untouched_payload(self, checkpointed,
                                               tiny_bundle, platform,
                                               tiny_calibration):
        _, original, payload = checkpointed
        fresh = build_engine("daop", tiny_bundle, platform, 0.5,
                             tiny_calibration)
        state = fresh.restore_sequence(
            json.loads(json.dumps(payload, sort_keys=True)))
        assert list(state.generated) == list(original.generated)


class TestResumeParityAudit:
    def test_passes_for_exact_and_predictive_engines(
            self, tiny_bundle, platform, tiny_calibration):
        report = run_resume_parity_audit(
            tiny_bundle, platform, engine_names=["fiddler", "daop"],
            seeds=(0,), prompt_len=12, max_new_tokens=6,
            calibration_probs=tiny_calibration,
        )
        assert report.ok
        assert report.problems == []
        # One comparison per engine x seed x cut, each covering both
        # the sequence and the scheduler resume paths.
        assert len(report.comparisons) == 2 * 1 * 2
        assert "all ok" in report.format()

    def test_detects_a_lossy_restore(self, tiny_bundle, platform,
                                     tiny_calibration, monkeypatch):
        """Sabotage: perturb restored state and demand the audit sees it.

        This is the corruption test proving the auditor actually
        compares the resumed run — a restore path that silently loses
        state must fail the audit, never report parity.
        """
        from repro.core.engine import BaseEngine

        original = BaseEngine.restore_sequence

        def lossy(self, payload, clock=None):
            state = original(self, payload, clock=clock)
            state.counters.expert_uploads += 1
            return state

        monkeypatch.setattr(BaseEngine, "restore_sequence", lossy)
        report = run_resume_parity_audit(
            tiny_bundle, platform, engine_names=["fiddler"],
            seeds=(0,), prompt_len=12, max_new_tokens=6,
            calibration_probs=tiny_calibration,
        )
        assert not report.ok
        assert any("EngineCounters" in p for p in report.problems)
        assert "FAILURES" in report.format()

    def test_detects_a_restore_that_erases_provenance(
            self, tiny_bundle, platform, tiny_calibration, monkeypatch):
        """Sabotage: restore every trace event with ``predicted=False``.

        The flag marks DAOP's predicted expert sets, the approximation
        whose accuracy cost the divergence audit attributes; a resume
        that drops it keeps tokens, counters and timeline intact, so
        only the trace comparison can see it.
        """
        from repro.trace.recorder import ActivationTrace

        original = ActivationTrace.from_state_dict.__func__

        def erasing(cls, payload):
            events = [dict(event, predicted=False)
                      for event in payload["events"]]
            return original(cls, dict(payload, events=events))

        monkeypatch.setattr(ActivationTrace, "from_state_dict",
                            classmethod(erasing))
        report = run_resume_parity_audit(
            tiny_bundle, platform, engine_names=["daop"],
            seeds=(0,), prompt_len=12, max_new_tokens=6,
            calibration_probs=tiny_calibration,
        )
        assert not report.ok
        assert any("trace events" in p for p in report.problems)
