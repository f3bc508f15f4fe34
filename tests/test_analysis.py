"""Unit tests for timeline analysis and bottleneck diagnosis."""

import pytest

from repro.analysis import (
    CPU_BOUND,
    GPU_BOUND,
    TRANSFER_BOUND,
    attribution_report,
    critical_path,
    diagnose,
    summarize_schedule,
    utilization_report,
)
from repro.core import build_engine
from repro.hardware.timeline import CPU, GPU, H2D, Timeline
from repro.workloads import C4, SequenceGenerator


class TestUtilization:
    def test_basic(self):
        tl = Timeline()
        tl.add(GPU, 2.0)
        tl.add(CPU, 1.0)
        report = utilization_report(tl)
        assert report.makespan == 2.0
        assert report.busy[GPU] == 2.0
        assert report.utilization[CPU] == pytest.approx(0.5)
        assert report.dominant_resource() == GPU

    def test_empty(self):
        report = utilization_report(Timeline())
        assert report.makespan == 0.0
        assert all(u == 0.0 for u in report.utilization.values())


class TestAttribution:
    def test_grouping(self):
        tl = Timeline()
        tl.add(GPU, 1.0, kind="non_moe")
        tl.add(GPU, 3.0, kind="expert_gpu")
        tl.add(H2D, 2.0, kind="expert_upload")
        report = attribution_report(tl)
        assert report.by_kind["expert_gpu"] == 3.0
        assert report.total == 6.0
        assert report.fraction("expert_upload") == pytest.approx(1 / 3)
        assert report.top(1)[0][0] == "expert_gpu"

    def test_resource_filter(self):
        tl = Timeline()
        tl.add(GPU, 1.0, kind="a")
        tl.add(CPU, 5.0, kind="b")
        report = attribution_report(tl, resource=GPU)
        assert "b" not in report.by_kind

    def test_empty_fraction(self):
        assert attribution_report(Timeline()).fraction("x") == 0.0


class TestCriticalPath:
    def test_simple_chain(self):
        tl = Timeline()
        a = tl.add(GPU, 1.0, kind="a")
        b = tl.add(CPU, 2.0, deps=[a], kind="b")
        c = tl.add(GPU, 1.0, deps=[b], kind="c")
        path = critical_path(tl)
        assert [op.index for op in path.ops] == [a.index, b.index, c.index]
        assert path.length == pytest.approx(4.0)

    def test_skips_non_binding_branch(self):
        tl = Timeline()
        long_op = tl.add(CPU, 10.0, kind="long")
        tl.add(GPU, 1.0, kind="short")  # parallel, not binding
        final = tl.add(GPU, 1.0, deps=[long_op], kind="final")
        path = critical_path(tl)
        kinds = {op.kind for op in path.ops}
        assert "long" in kinds and "final" in kinds
        assert "short" not in kinds

    def test_breakdowns(self):
        tl = Timeline()
        a = tl.add(GPU, 1.0, kind="x")
        tl.add(CPU, 3.0, deps=[a], kind="y")
        path = critical_path(tl)
        assert path.kind_breakdown() == {"x": 1.0, "y": 3.0}
        assert path.resource_breakdown() == {GPU: 1.0, CPU: 3.0}

    def test_empty(self):
        path = critical_path(Timeline())
        assert path.ops == []
        assert path.length == 0.0

    def test_follows_dependency_not_timing_coincidence(self):
        """Two ops end when the last one starts; only one is its
        dependency, and only that one is on the path."""
        tl = Timeline()
        tl.add(GPU, 1.0, kind="unrelated")
        dep = tl.add(CPU, 1.0, kind="dep")
        final = tl.add(H2D, 1.0, deps=[dep], kind="final")
        path = critical_path(tl)
        assert [op.index for op in path.ops] == [dep.index, final.index]

    def test_solo_run_path_is_contiguous_and_keeps_kind_times(
            self, tiny_bundle, platform, tiny_calibration):
        """On a solo run each path op starts when its predecessor ends,
        from 0 to the makespan.  The per-kind times are those the former
        end-time-matching walk found (its path differed only in
        zero-duration sync ops)."""
        engine = build_engine("daop", tiny_bundle, platform, 0.5,
                              tiny_calibration)
        gen = SequenceGenerator(C4, tiny_bundle.vocab, seed=51)
        seq = gen.sample_sequence(12, 6, sample_idx=0)
        timeline = engine.generate(seq.prompt_tokens, 6).timeline
        path = critical_path(timeline)
        ops = path.ops
        assert ops[0].start == 0.0
        assert ops[-1].end == timeline.makespan
        assert all(a.end == b.start for a, b in zip(ops, ops[1:]))
        kinds = {kind: seconds for kind, seconds
                 in path.kind_breakdown().items() if seconds}
        assert kinds == {
            "act_d2h": 0.006890506666666671,
            "act_h2d": 0.007685706666666672,
            "expert_cpu": 0.007779102591876213,
            "expert_gpu": 0.007569498039215691,
            "expert_upload": 0.0017638571428571428,
            "gate": 0.012384909803921576,
            "lm_head": 0.0015540470588235292,
            "non_moe": 0.011504484313725485,
        }

    def test_path_length_equals_makespan(self, tiny_bundle, platform,
                                         tiny_calibration):
        engine = build_engine("daop", tiny_bundle, platform, 0.5,
                              tiny_calibration)
        gen = SequenceGenerator(C4, tiny_bundle.vocab, seed=51)
        seq = gen.sample_sequence(12, 6, sample_idx=0)
        result = engine.generate(seq.prompt_tokens, 6)
        path = critical_path(result.timeline)
        assert path.length == pytest.approx(result.timeline.makespan)


class TestDiagnose:
    """Classification needs paper-scale expert sizes, where the Fig. 8
    bottleneck structure (40 ms uploads vs 1.2 ms blocks) exists; a
    4-block Mixtral-architecture bundle provides it cheaply."""

    @pytest.fixture(scope="class")
    def mixtral_small(self):
        from repro.model.zoo import build_mixtral_8x7b_sim

        return build_mixtral_8x7b_sim(seed=0, n_blocks=4)

    def _run(self, name, bundle, platform, ecr):
        engine = build_engine(name, bundle, platform, ecr)
        gen = SequenceGenerator(C4, bundle.vocab, seed=52)
        seq = gen.sample_sequence(12, 8, sample_idx=0)
        return engine.generate(seq.prompt_tokens, 8)

    def test_official_is_gpu_bound(self, mixtral_small, platform):
        result = self._run("official", mixtral_small, platform, 1.0)
        report = diagnose(result)
        assert report.classification == GPU_BOUND

    def test_ondemand_is_transfer_bound(self, mixtral_small, platform):
        result = self._run("moe-ondemand", mixtral_small, platform, 0.25)
        report = diagnose(result)
        assert report.classification == TRANSFER_BOUND

    def test_fiddler_cpu_heavy(self, mixtral_small, platform):
        result = self._run("fiddler", mixtral_small, platform, 0.25)
        report = diagnose(result)
        assert report.critical_fractions[CPU_BOUND] > 0.3

    def test_fractions_sum_to_one(self, mixtral_small, platform):
        result = self._run("daop", mixtral_small, platform, 0.5)
        report = diagnose(result)
        assert sum(report.critical_fractions.values()) == pytest.approx(1.0)


def test_summarize_schedule_renders(tiny_bundle, platform,
                                    tiny_calibration):
    engine = build_engine("daop", tiny_bundle, platform, 0.5,
                          tiny_calibration)
    gen = SequenceGenerator(C4, tiny_bundle.vocab, seed=53)
    seq = gen.sample_sequence(12, 4, sample_idx=0)
    result = engine.generate(seq.prompt_tokens, 4)
    text = summarize_schedule(result.timeline)
    assert "makespan" in text
    assert "gpu" in text
    assert "critical path" in text
