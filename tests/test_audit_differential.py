"""Tests for the cross-engine differential audit (repro.audit.differential)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.audit import (
    DEFAULT_SEEDS,
    ORACLE_ENGINE,
    EngineComparison,
    block_divergence_accounting,
    compare_token_streams,
    run_differential_audit,
)
from repro.audit.differential import _compare
from repro.core import ENGINE_NAMES, build_engine
from repro.workloads import C4, SequenceGenerator


# ---- token-stream comparison -------------------------------------------------


def test_identical_streams():
    tokens = np.array([1, 2, 3, 4])
    assert compare_token_streams(tokens, tokens.copy()) == (0, None)


def test_first_divergence_located():
    n, first = compare_token_streams(np.array([1, 2, 3, 4]),
                                     np.array([1, 2, 9, 4]))
    assert (n, first) == (1, 2)


def test_length_mismatch_counts_tail():
    n, first = compare_token_streams(np.array([1, 2, 3, 4]),
                                     np.array([1, 2]))
    assert (n, first) == (2, 2)
    n, first = compare_token_streams(np.array([1, 2]),
                                     np.array([1, 9, 3]))
    assert (n, first) == (2, 1)


# ---- comparison classification -----------------------------------------------


def fake_result(tokens, events=()):
    return SimpleNamespace(tokens=np.asarray(tokens),
                           trace=SimpleNamespace(events=list(events)))


def fake_event(predicted, experts=(0, 1), executed=None, block=0,
               token_pos=0):
    return SimpleNamespace(phase="decode", block=block,
                           token_pos=token_pos, experts=tuple(experts),
                           executed_experts=executed, predicted=predicted)


def test_non_predictive_divergence_is_a_problem():
    oracle = fake_result([1, 2, 3])
    diverged = fake_result([1, 2, 9])
    comparison = _compare(object(), "fiddler", 0, oracle, diverged,
                          audit_invariants=False)
    assert not comparison.ok
    assert any("placement must never change values" in p
               for p in comparison.problems)


def test_non_predictive_predicted_event_is_a_problem():
    oracle = fake_result([1, 2, 3])
    result = fake_result([1, 2, 3], events=[fake_event(predicted=True)])
    comparison = _compare(object(), "fiddler", 0, oracle, result,
                          audit_invariants=False)
    assert any("predicted=True" in p for p in comparison.problems)


def test_predictive_divergence_requires_predicted_events():
    predictive = SimpleNamespace(enable_precalc=True)
    oracle = fake_result([1, 2, 3])
    # Divergence with a predicted event to attribute it to: allowed.
    attributed = fake_result([1, 2, 9],
                             events=[fake_event(predicted=True)])
    ok = _compare(predictive, "daop", 0, oracle, attributed,
                  audit_invariants=False)
    assert ok.ok and not ok.identical
    # The same divergence without any predicted event: a problem.
    orphan = fake_result([1, 2, 9], events=[fake_event(predicted=False)])
    bad = _compare(predictive, "daop", 0, oracle, orphan,
                   audit_invariants=False)
    assert any("without a single predicted=True" in p
               for p in bad.problems)


def test_predictive_first_token_must_match():
    predictive = SimpleNamespace(enable_precalc=True)
    oracle = fake_result([1, 2, 3])
    result = fake_result([9, 2, 3], events=[fake_event(predicted=True)])
    comparison = _compare(predictive, "daop", 0, oracle, result,
                          audit_invariants=False)
    assert any("prefill is exact" in p for p in comparison.problems)


# ---- per-block accounting ----------------------------------------------------


def test_block_divergence_accounting():
    events = [
        fake_event(predicted=False, block=0),
        fake_event(predicted=True, block=0, experts=(0, 1),
                   executed=(0, 1)),
        fake_event(predicted=True, block=1, experts=(0, 1),
                   executed=(2, 3)),
    ]
    blocks = {b.block: b
              for b in block_divergence_accounting(fake_result([], events))}
    assert blocks[0].decode_events == 2
    assert blocks[0].predicted_events == 1
    assert blocks[0].mispredicted_events == 0
    assert blocks[0].prediction_accuracy == pytest.approx(1.0)
    assert blocks[1].mispredicted_events == 1
    assert blocks[1].prediction_accuracy == pytest.approx(0.0)


# ---- the full harness --------------------------------------------------------


@pytest.fixture(scope="module")
def report(tiny_bundle, platform, tiny_calibration):
    return run_differential_audit(
        tiny_bundle, platform, calibration_probs=tiny_calibration,
        prompt_len=12, max_new_tokens=8,
    )


def test_differential_audit_passes(report):
    assert report.ok, report.format()
    assert report.oracle == ORACLE_ENGINE


def test_differential_audit_covers_every_engine_and_seed(report):
    covered = {(c.engine, c.seed) for c in report.engine_comparisons}
    engines = [n for n in ENGINE_NAMES if n != ORACLE_ENGINE]
    assert covered == {(e, s) for e in engines for s in DEFAULT_SEEDS}
    oracle = [c for c in report.comparisons
              if not isinstance(c, EngineComparison)]
    assert [c.label for c in oracle] == [f"{ORACLE_ENGINE}/seed{s}"
                                         for s in DEFAULT_SEEDS]
    assert all(len(c.audits) == 1 for c in oracle)


def test_non_predictive_engines_are_token_identical(report):
    for comparison in report.engine_comparisons:
        if not comparison.predictive:
            assert comparison.identical, (
                f"{comparison.engine}/seed{comparison.seed} diverged"
            )


def test_daop_divergence_is_attributed(report):
    daop = [c for c in report.engine_comparisons if c.engine == "daop"]
    assert daop and all(c.predictive for c in daop)
    for comparison in daop:
        if not comparison.identical:
            assert sum(b.predicted_events
                       for b in comparison.block_divergence) > 0


def test_report_rows_match_comparisons(report):
    rows = report.rows()
    assert len(rows) == len(report.engine_comparisons)
    assert all(row[-1] == "ok" for row in rows)


def test_detects_a_value_changing_engine(tiny_bundle, platform,
                                         tiny_calibration):
    """A non-predictive engine whose math deviates must fail the audit."""

    class LyingEngine:
        """Wraps fiddler but corrupts its third emitted token."""

        def __init__(self):
            self.inner = build_engine("fiddler", tiny_bundle, platform,
                                      0.5, tiny_calibration)
            self.name = "lying-fiddler"

        def __getattr__(self, attr):
            return getattr(self.inner, attr)

        def generate(self, prompt, max_new_tokens, **kw):
            result = self.inner.generate(prompt, max_new_tokens, **kw)
            result.tokens[2] = (result.tokens[2] + 1) % 7
            return result

    oracle = build_engine(ORACLE_ENGINE, tiny_bundle, platform, 0.5,
                          tiny_calibration)
    gen = SequenceGenerator(C4, tiny_bundle.vocab, seed=0)
    prompt = gen.sample_sequence(12, 0, sample_idx=0).prompt_tokens
    oracle_result = oracle.generate(prompt, 8)
    liar = LyingEngine()
    comparison = _compare(liar, "lying-fiddler", 0, oracle_result,
                          liar.generate(prompt, 8),
                          audit_invariants=False)
    assert not comparison.ok
    assert comparison.first_divergence == 2


# ---- shared compute cache + cache parity -------------------------------------


@pytest.fixture(scope="module")
def cached_report(tiny_bundle, platform, tiny_calibration):
    from repro.perf import TensorCache

    cache = TensorCache()
    report = run_differential_audit(
        tiny_bundle, platform, engine_names=["fiddler", "daop"],
        seeds=(0,), prompt_len=10, max_new_tokens=6,
        calibration_probs=tiny_calibration,
        compute_cache=cache, cache_parity=True,
    )
    return report, cache


def test_cache_parity_audit_passes(cached_report):
    report, cache = cached_report
    assert report.ok, report.format()
    assert report.problems == []
    # The oracle's own run is a comparison too (its audit and cache
    # parity), ahead of the engines it defines correctness for.
    assert [c.label for c in report.comparisons] == [
        f"{ORACLE_ENGINE}/seed0", "fiddler/seed0", "daop/seed0"]
    # The cache actually served forwards across the engine matrix.
    assert cache.hits > 0


def test_cache_detached_after_audit(tiny_bundle, cached_report):
    assert tiny_bundle.model.compute_cache is None
    assert all(b.compute_cache is None for b in tiny_bundle.model.blocks)


def test_cache_parity_requires_a_cache(tiny_bundle, platform):
    with pytest.raises(ValueError):
        run_differential_audit(tiny_bundle, platform, cache_parity=True)


def test_cache_parity_problems_catch_divergence():
    from repro.audit import result_differences
    from repro.memory.placement import ExpertPlacement

    a = SimpleNamespace(
        tokens=np.array([1, 2, 3]),
        trace=SimpleNamespace(events=[]),
        stats=SimpleNamespace(counters={"expert_gpu": 4},
                              prefill_time_s=1.0, total_time_s=2.0),
        timeline=SimpleNamespace(ops=[], makespan=2.0),
        placement=ExpertPlacement.all_on_gpu(2, 4),
    )
    b = SimpleNamespace(
        tokens=np.array([1, 2, 9]),
        trace=SimpleNamespace(events=[fake_event(predicted=True)]),
        stats=SimpleNamespace(counters={"expert_gpu": 5},
                              prefill_time_s=1.0, total_time_s=2.5),
        timeline=SimpleNamespace(ops=[], makespan=2.5),
        placement=ExpertPlacement.all_on_cpu(2, 4),
    )
    problems = result_differences(a, b)
    assert problems == [
        "token stream differs",
        "trace events differ",
        "EngineCounters differ",
        "final placement differs",
        "total_time_s 2.5 != 2.0",
    ]
    assert result_differences(a, a) == []


def test_step_parity_audit_with_shared_cache(tiny_bundle, platform,
                                             tiny_calibration):
    from repro.audit import run_step_parity_audit
    from repro.perf import TensorCache

    cache = TensorCache()
    report = run_step_parity_audit(
        tiny_bundle, platform, engine_names=["fiddler"], seeds=(0,),
        prompt_len=10, max_new_tokens=6,
        calibration_probs=tiny_calibration, compute_cache=cache,
    )
    assert report.ok, report.format()
    assert cache.hits > 0
    assert tiny_bundle.model.compute_cache is None


def test_step_parity_check_compares_op_by_op(tiny_bundle, platform,
                                             tiny_calibration):
    """Equal makespan and op count are not enough: a reordered schedule
    (two ops swapped) is reported once, at its first differing op."""
    from dataclasses import replace

    from repro.audit import result_differences, value_differences

    engine = build_engine("fiddler", tiny_bundle, platform, 0.5,
                          tiny_calibration)
    prompt = SequenceGenerator(C4, tiny_bundle.vocab, seed=0) \
        .sample_sequence(10, 4).prompt_tokens
    reference = engine.generate(prompt, 4)
    candidate = engine.generate(prompt, 4)
    assert result_differences(reference, candidate) == []

    ops = candidate.timeline.ops
    first, second = ops[1], ops[2]
    ops[1] = replace(second, index=first.index)
    ops[2] = replace(first, index=second.index)
    assert candidate.timeline.makespan == reference.timeline.makespan
    problems = result_differences(reference, candidate)
    assert len(problems) == 1
    assert problems[0].startswith("per-op timeline: op 1 ")
    # The values contract ignores the schedule.
    assert value_differences(reference, candidate) == []
