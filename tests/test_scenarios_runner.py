"""End-to-end tests for scenario materialization and execution."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import build_engine
from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.report import diff_reports
from repro.serving import ServingSimulator
from repro.workloads import (
    load_request_specs,
    record_request_specs,
    save_workload,
)


def _payload_json(runner):
    """Canonical rendering of a runner's materialized request list."""
    payload = record_request_specs(runner.build_requests())
    return json.dumps(payload, sort_keys=True)


def make_simulator(tiny_bundle, platform, tiny_calibration):
    """A fresh DAOP serving simulator (fresh engine state each call)."""
    engine = build_engine("daop", tiny_bundle, platform, 0.5,
                         tiny_calibration)
    return ServingSimulator(engine)


class TestBuildRequests:
    def test_deterministic_for_same_seed(self, tiny_bundle):
        spec = get_scenario("multi-tenant-slo")
        a = ScenarioRunner(spec, tiny_bundle.vocab, seed=11)
        b = ScenarioRunner(spec, tiny_bundle.vocab, seed=11)
        assert _payload_json(a) == _payload_json(b)

    def test_seed_changes_requests(self, tiny_bundle):
        spec = get_scenario("multi-tenant-slo")
        a = ScenarioRunner(spec, tiny_bundle.vocab, seed=11)
        b = ScenarioRunner(spec, tiny_bundle.vocab, seed=12)
        assert _payload_json(a) != _payload_json(b)

    def test_session_requests_share_prefix(self, tiny_bundle):
        spec = get_scenario("session-prefix-reuse")
        runner = ScenarioRunner(spec, tiny_bundle.vocab, seed=5)
        specs = runner.build_requests()
        prefix_len = spec.tenants[0].session.prefix_len
        by_session = {}
        for request in specs:
            assert request.session is not None
            by_session.setdefault(request.session, []).append(request)
        assert len(by_session) > 1
        for members in by_session.values():
            first = members[0].prompt_tokens[:prefix_len]
            for member in members[1:]:
                np.testing.assert_array_equal(
                    member.prompt_tokens[:prefix_len], first
                )
        # Distinct sessions use distinct prefixes.
        prefixes = {
            tuple(members[0].prompt_tokens[:prefix_len].tolist())
            for members in by_session.values()
        }
        assert len(prefixes) == len(by_session)

    def test_n_distinct_reuses_content(self, tiny_bundle):
        spec = get_scenario("onoff-batch-bursts")
        runner = ScenarioRunner(spec, tiny_bundle.vocab, seed=5)
        specs = runner.build_requests()
        n_distinct = spec.tenants[0].n_distinct
        by_sample = {}
        for request in specs:
            by_sample.setdefault(request.sample_idx, []).append(request)
        assert set(by_sample) == set(range(n_distinct))
        for members in by_sample.values():
            for member in members[1:]:
                np.testing.assert_array_equal(member.prompt_tokens,
                                              members[0].prompt_tokens)
                np.testing.assert_array_equal(member.forced_tokens,
                                              members[0].forced_tokens)

    def test_fast_caps_requests_and_lengths(self, tiny_bundle):
        spec = get_scenario("chat-diurnal")
        runner = ScenarioRunner(spec, tiny_bundle.vocab, seed=2,
                                fast=True, fast_requests=4,
                                fast_max_len=8)
        specs = runner.build_requests()
        assert len(specs) == 4
        assert all(s.prompt_tokens.size <= 8 for s in specs)
        assert all(s.output_len <= 8 for s in specs)

    def test_bad_fast_caps_rejected(self, tiny_bundle):
        spec = get_scenario("chat-diurnal")
        with pytest.raises(ValueError):
            ScenarioRunner(spec, tiny_bundle.vocab, fast_requests=0)
        with pytest.raises(ValueError):
            ScenarioRunner(spec, tiny_bundle.vocab, fast_max_len=1)


class TestGoldenDigest:
    def test_digest_stable_across_runs_and_reconstruction(
            self, tiny_bundle, platform, tiny_calibration):
        """Same scenario + seed => identical report digest, even after
        re-constructing the runner and the simulator from scratch."""
        spec = get_scenario("gsm8k-topic-drift")
        runner = ScenarioRunner(spec, tiny_bundle.vocab, seed=3,
                                fast=True)
        first = runner.run(
            make_simulator(tiny_bundle, platform, tiny_calibration)
        )
        second = runner.run(
            make_simulator(tiny_bundle, platform, tiny_calibration)
        )
        rebuilt = ScenarioRunner(spec, tiny_bundle.vocab, seed=3,
                                 fast=True).run(
            make_simulator(tiny_bundle, platform, tiny_calibration)
        )
        assert first.content_digest() == second.content_digest()
        assert first.content_digest() == rebuilt.content_digest()

    def test_recorded_workload_replays_bit_exactly(
            self, tmp_path, tiny_bundle, platform, tiny_calibration):
        spec = get_scenario("mixed-interactive-batch")
        runner = ScenarioRunner(spec, tiny_bundle.vocab, seed=7,
                                fast=True)
        requests = runner.build_requests()
        path = tmp_path / "scenario.workload.json"
        save_workload(str(path),
                      record_request_specs(requests, label=spec.name))
        live = runner.run(
            make_simulator(tiny_bundle, platform, tiny_calibration),
            requests=requests,
        )
        replayed = runner.run(
            make_simulator(tiny_bundle, platform, tiny_calibration),
            requests=load_request_specs(str(path)),
        )
        assert live.content_digest() == replayed.content_digest()
        assert live.to_json() == replayed.to_json()


class TestReport:
    @pytest.fixture()
    def report(self, tiny_bundle, platform, tiny_calibration):
        spec = get_scenario("multi-tenant-slo")
        runner = ScenarioRunner(spec, tiny_bundle.vocab, seed=9,
                                fast=True)
        return runner.run(
            make_simulator(tiny_bundle, platform, tiny_calibration)
        )

    def test_mode_and_counts(self, report):
        assert report.mode == "serving"
        assert report.scenario == "multi-tenant-slo"
        assert report.n_served == report.n_offered == 6

    def test_breakdowns_partition_the_requests(self, report):
        tenants = {"chat", "summarize", "analyst"}
        per_tenant = report.per_tenant()
        assert set(per_tenant) <= tenants
        assert sum(g["offered"] for g in per_tenant.values()) == 6
        per_slo = report.per_slo_class()
        assert set(per_slo) <= {"interactive", "batch", "long_context"}
        assert sum(g["served"] for g in per_slo.values()) == 6

    def test_to_json_round_trips_with_digest(self, report):
        payload = json.loads(report.to_json())
        assert payload["digest"] == report.content_digest()
        assert payload["summary"]["served"] == 6
        assert len(payload["requests"]) == 6

    def test_diff_reports_empty_for_identical(self, report):
        assert diff_reports(report.to_dict(), report.to_dict()) == []

    def test_diff_reports_flags_perturbation(self, report):
        altered = dataclasses.replace(report)
        altered.requests = list(report.requests)
        altered.requests[0] = dataclasses.replace(
            altered.requests[0],
            finish_s=altered.requests[0].finish_s + 1.0,
        )
        lines = diff_reports(report.to_dict(), altered.to_dict())
        assert lines
        assert lines[0].startswith("digest:")


class TestLifecycle:
    """Resumable scenario runs (docs/lifecycle.md) and digest scope."""

    SPEC = "mixed-interactive-batch"

    def _simulator(self, tiny_bundle, platform, tiny_calibration,
                   concurrency=2):
        engine = build_engine("daop", tiny_bundle, platform, 0.5,
                              tiny_calibration)
        return ServingSimulator(engine, concurrency=concurrency)

    def _runner(self, tiny_bundle, seed=7):
        return ScenarioRunner(get_scenario(self.SPEC), tiny_bundle.vocab,
                              seed=seed, fast=True)

    def test_begin_tick_finish_equals_run(self, tiny_bundle, platform,
                                          tiny_calibration):
        runner = self._runner(tiny_bundle)
        whole = runner.run(
            self._simulator(tiny_bundle, platform, tiny_calibration))
        simulator = self._simulator(tiny_bundle, platform,
                                    tiny_calibration)
        session = runner.begin(simulator)
        while simulator.tick(session.backend):
            pass
        stepped = runner.finish(simulator, session)
        assert stepped.content_digest() == whole.content_digest()

    def test_pause_checkpoint_resume_digest_parity(
            self, tiny_bundle, platform, tiny_calibration):
        from repro.serving import SimCheckpoint

        runner = self._runner(tiny_bundle)
        reference = runner.run(
            self._simulator(tiny_bundle, platform, tiny_calibration))

        first = self._simulator(tiny_bundle, platform, tiny_calibration)
        session = runner.begin(first)
        for _ in range(3):
            if not first.tick(session.backend):
                break
        # Through real JSON bytes, as the CLI's --checkpoint-to writes.
        checkpoint = SimCheckpoint.from_dict(json.loads(json.dumps(
            first.checkpoint(session.backend).to_dict(), sort_keys=True)))

        second = self._simulator(tiny_bundle, platform, tiny_calibration)
        resumed = runner.resume(second, checkpoint)
        while second.tick(resumed.backend):
            pass
        report = runner.finish(second, resumed)
        assert report.content_digest() == reference.content_digest()
        assert report.to_json() == reference.to_json()

    def test_digest_discriminates_backend_config(
            self, tiny_bundle, platform, tiny_calibration):
        """Runs that scheduled differently must never alias."""
        runner = self._runner(tiny_bundle)
        batched = runner.run(self._simulator(
            tiny_bundle, platform, tiny_calibration, concurrency=2))
        solo = runner.run(self._simulator(
            tiny_bundle, platform, tiny_calibration, concurrency=1))
        assert batched.content_digest() != solo.content_digest()

    def test_report_records_backend_config(self, tiny_bundle, platform,
                                           tiny_calibration):
        runner = self._runner(tiny_bundle)
        report = runner.run(self._simulator(
            tiny_bundle, platform, tiny_calibration, concurrency=2))
        assert report.concurrency == 2
        payload = json.loads(report.to_json())
        assert payload["backend"] == {"concurrency": 2}
