"""Integration tests for the multi-replica cluster simulator."""

import numpy as np
import pytest

from repro.cluster import (
    AdmissionController,
    ClusterSimulator,
    build_policy,
    prefill_fingerprint,
    warm_hit_rate,
)
from repro.core import build_engine
from repro.scenarios.arrivals import uniform_arrivals
from repro.workloads import SHAREGPT, SequenceGenerator

# Three-cluster request pattern: non-cyclic, so round-robin's rotation
# cannot accidentally align with the similarity structure.
PATTERN = [0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1]


def build_fleet(tiny_bundle, platform, tiny_calibration, n=2,
                engine="daop"):
    """n identically-configured engine replicas."""
    return [
        build_engine(engine, tiny_bundle, platform, 0.5, tiny_calibration)
        for _ in range(n)
    ]


def run_policy(tiny_bundle, platform, tiny_calibration, policy_name,
               rate=0.002, **sim_kwargs):
    """One clustered-workload fleet run under the named policy."""
    engines = build_fleet(tiny_bundle, platform, tiny_calibration)
    generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab, seed=61)
    simulator = ClusterSimulator(engines, generator,
                                 build_policy(policy_name), **sim_kwargs)
    arrivals = uniform_arrivals(rate, len(PATTERN))
    return simulator.run(arrivals, prompt_len=12, output_len=6,
                         sample_indices=PATTERN)


@pytest.fixture(scope="module")
def policy_reports(tiny_bundle, platform, tiny_calibration):
    """The clustered workload served under every routing policy."""
    return {
        name: run_policy(tiny_bundle, platform, tiny_calibration, name)
        for name in ("round-robin", "join-shortest-queue",
                     "cache-affinity")
    }


class TestFingerprint:
    def test_fingerprint_counts_topk_activations(self, tiny_bundle):
        generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab, seed=61)
        prompt = generator.sample_sequence(12, 4, sample_idx=0).prompt_tokens
        model = tiny_bundle.model
        fp = prefill_fingerprint(model, prompt)
        assert fp.shape == (model.n_blocks, model.n_experts)
        # top-k routing: every block activates exactly k slots per token.
        expected = len(prompt) * model.top_k
        np.testing.assert_allclose(fp.sum(axis=1), expected)

    def test_warm_hit_rate_bounds(self, tiny_bundle, platform,
                                  tiny_calibration):
        engine = build_fleet(tiny_bundle, platform, tiny_calibration,
                             n=1)[0]
        generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab, seed=61)
        prompt = generator.sample_sequence(12, 4, sample_idx=0).prompt_tokens
        fp = prefill_fingerprint(tiny_bundle.model, prompt)
        rate = warm_hit_rate(engine.initial_placement, fp)
        assert 0.0 <= rate <= 1.0
        assert warm_hit_rate(engine.initial_placement, np.zeros_like(fp)) \
            == 0.0


class TestLightLoad:
    def test_all_requests_served(self, policy_reports):
        for report in policy_reports.values():
            assert report.n_served == len(PATTERN)
            assert report.rejected == []
            assert all(r.n_generated == 6 for r in report.requests)

    def test_request_invariants(self, policy_reports):
        for report in policy_reports.values():
            for r in report.requests:
                assert 0 <= r.replica < report.n_replicas
                assert r.arrival_s <= r.start_s <= r.first_token_s \
                    <= r.finish_s
                assert 0.0 <= r.warm_hit_rate <= 1.0
                assert 0.0 <= r.engine_hit_rate <= 1.0

    def test_no_overlap_per_replica(self, policy_reports):
        for report in policy_reports.values():
            for replica in range(report.n_replicas):
                mine = sorted((r for r in report.requests
                               if r.replica == replica),
                              key=lambda r: r.start_s)
                for a, b in zip(mine, mine[1:]):
                    assert b.start_s >= a.finish_s - 1e-12

    def test_busy_time_matches_served_requests(self, policy_reports):
        for report in policy_reports.values():
            for replica in range(report.n_replicas):
                served = sum(r.finish_s - r.start_s
                             for r in report.requests
                             if r.replica == replica)
                assert report.replica_busy_s[replica] \
                    == pytest.approx(served)

    def test_round_robin_alternates(self, policy_reports):
        replicas = [r.replica for r in sorted(
            policy_reports["round-robin"].requests,
            key=lambda r: r.request_id)]
        assert replicas == [i % 2 for i in range(len(PATTERN))]


class TestDeterminism:
    def test_two_fresh_simulators_byte_identical(self, tiny_bundle,
                                                 platform,
                                                 tiny_calibration):
        a = run_policy(tiny_bundle, platform, tiny_calibration,
                       "cache-affinity")
        b = run_policy(tiny_bundle, platform, tiny_calibration,
                       "cache-affinity")
        assert a.to_json() == b.to_json()

    def test_same_simulator_rerun_identical(self, tiny_bundle, platform,
                                            tiny_calibration):
        engines = build_fleet(tiny_bundle, platform, tiny_calibration)
        generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab, seed=61)
        simulator = ClusterSimulator(engines, generator,
                                     build_policy("cache-affinity"))
        arrivals = uniform_arrivals(0.002, len(PATTERN))
        first = simulator.run(arrivals, 12, 6, sample_indices=PATTERN)
        second = simulator.run(arrivals, 12, 6, sample_indices=PATTERN)
        assert first.to_json() == second.to_json()


class TestRunRequests:
    """The RequestSpec entry point added for the scenario library."""

    def _specs_from_pattern(self, tiny_bundle, arrivals):
        from repro.workloads import RequestSpec

        generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab,
                                      seed=61)
        sequences = {
            idx: generator.sample_sequence(12, 6, sample_idx=idx)
            for idx in set(PATTERN)
        }
        ordered = np.sort(np.asarray(arrivals, dtype=np.float64))
        return [
            RequestSpec(
                request_id=i,
                arrival_s=float(ordered[i]),
                prompt_tokens=sequences[idx].prompt_tokens,
                output_len=6,
                forced_tokens=sequences[idx].continuation_tokens,
                sample_idx=idx,
            )
            for i, idx in enumerate(PATTERN)
        ]

    def test_matches_uniform_run_on_equivalent_specs(
            self, tiny_bundle, platform, tiny_calibration):
        """run() and run_requests() fed the same work produce the same
        report: the uniform path is a true thin wrapper."""
        arrivals = uniform_arrivals(0.002, len(PATTERN))
        baseline = run_policy(tiny_bundle, platform, tiny_calibration,
                              "cache-affinity")
        engines = build_fleet(tiny_bundle, platform, tiny_calibration)
        simulator = ClusterSimulator(engines, None,
                                     build_policy("cache-affinity"))
        specs = self._specs_from_pattern(tiny_bundle, arrivals)
        report = simulator.run_requests(specs)
        assert report.to_json() == baseline.to_json()

    def test_content_dedupe_across_sample_idx_collision(
            self, tiny_bundle, platform, tiny_calibration):
        """Two requests with the same sample_idx but different token
        content must not alias to one payload (the per-tenant
        generator regime)."""
        from repro.workloads import RequestSpec

        generator_a = SequenceGenerator(SHAREGPT, tiny_bundle.vocab,
                                        seed=61)
        generator_b = SequenceGenerator(SHAREGPT, tiny_bundle.vocab,
                                        seed=62)
        seq_a = generator_a.sample_sequence(12, 6, sample_idx=0)
        seq_b = generator_b.sample_sequence(10, 4, sample_idx=0)
        specs = [
            RequestSpec(request_id=0, arrival_s=0.0,
                        prompt_tokens=seq_a.prompt_tokens, output_len=6,
                        forced_tokens=seq_a.continuation_tokens,
                        sample_idx=0),
            RequestSpec(request_id=1, arrival_s=1.0,
                        prompt_tokens=seq_b.prompt_tokens, output_len=4,
                        forced_tokens=seq_b.continuation_tokens,
                        sample_idx=0),
        ]
        engines = build_fleet(tiny_bundle, platform, tiny_calibration)
        simulator = ClusterSimulator(engines, None,
                                     build_policy("round-robin"))
        report = simulator.run_requests(specs)
        served = {r.request_id: r for r in report.requests}
        assert served[0].n_prompt_tokens == 12
        assert served[0].n_generated == 6
        assert served[1].n_prompt_tokens == 10
        assert served[1].n_generated == 4

    def test_duplicate_request_ids_rejected(self, tiny_bundle, platform,
                                            tiny_calibration):
        from repro.workloads import RequestSpec

        generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab,
                                      seed=61)
        seq = generator.sample_sequence(8, 2, sample_idx=0)
        specs = [
            RequestSpec(request_id=3, arrival_s=float(i),
                        prompt_tokens=seq.prompt_tokens, output_len=2,
                        forced_tokens=seq.continuation_tokens)
            for i in range(2)
        ]
        engines = build_fleet(tiny_bundle, platform, tiny_calibration)
        simulator = ClusterSimulator(engines, None,
                                     build_policy("round-robin"))
        with pytest.raises(ValueError):
            simulator.run_requests(specs)

    def test_run_without_generator_raises(self, tiny_bundle, platform,
                                          tiny_calibration):
        engines = build_fleet(tiny_bundle, platform, tiny_calibration)
        simulator = ClusterSimulator(engines, None,
                                     build_policy("round-robin"))
        with pytest.raises(ValueError):
            simulator.run(uniform_arrivals(1.0, 2), 8, 4)


class TestCacheAffinityWins:
    """The subsystem's headline property (ISSUE acceptance criterion)."""

    def test_higher_warm_hit_rate_than_round_robin(self, policy_reports):
        affinity = policy_reports["cache-affinity"]
        round_robin = policy_reports["round-robin"]
        assert affinity.mean_warm_hit_rate > round_robin.mean_warm_hit_rate

    def test_fewer_prefill_swaps_than_round_robin(self, policy_reports):
        swaps = {
            name: sum(r.prefill_swaps for r in report.requests)
            for name, report in policy_reports.items()
        }
        assert swaps["cache-affinity"] < swaps["round-robin"]


class TestOverload:
    def test_full_queues_shed(self, tiny_bundle, platform,
                              tiny_calibration):
        report = run_policy(
            tiny_bundle, platform, tiny_calibration, "join-shortest-queue",
            rate=100.0, admission=AdmissionController(max_queue_len=1),
        )
        assert report.n_shed > 0
        assert report.n_served + report.n_shed == len(PATTERN)
        assert report.slo_attainment < 1.0

    def test_deadline_expires_queued_requests(self, tiny_bundle, platform,
                                              tiny_calibration):
        report = run_policy(
            tiny_bundle, platform, tiny_calibration, "join-shortest-queue",
            rate=100.0,
            admission=AdmissionController(max_queue_len=32,
                                          ttft_deadline_s=1e-6),
        )
        # Requests dispatched immediately on arrival survive; anything
        # that waited behind a busy replica blows the tiny deadline.
        assert report.n_expired > 0
        assert report.n_served + report.n_expired == len(PATTERN)


class TestGangDispatch:
    def test_concurrency1_matches_sequential_service(
            self, tiny_bundle, platform, tiny_calibration):
        """The gang path at concurrency=1 is byte-identical to the
        sequential dispatch it replaced."""
        sequential = run_policy(tiny_bundle, platform, tiny_calibration,
                                "round-robin", concurrency=1)
        baseline = run_policy(tiny_bundle, platform, tiny_calibration,
                              "round-robin")
        assert sequential.to_json() == baseline.to_json()

    def test_gangs_batch_queued_requests(self, tiny_bundle, platform,
                                         tiny_calibration):
        """Under load, a gang serves several requests concurrently on
        one replica: spans overlap and tail TTFT drops."""
        sequential = run_policy(tiny_bundle, platform, tiny_calibration,
                                "round-robin", rate=100.0)
        ganged = run_policy(tiny_bundle, platform, tiny_calibration,
                            "round-robin", rate=100.0, concurrency=3)
        assert len(ganged.requests) == len(sequential.requests)
        assert ganged.ttft_percentile(95) < sequential.ttft_percentile(95)
        by_replica = {}
        for r in ganged.requests:
            by_replica.setdefault(r.replica, []).append(r)
        overlapped = False
        for reqs in by_replica.values():
            reqs.sort(key=lambda r: r.start_s)
            overlapped = overlapped or any(
                b.start_s < a.finish_s for a, b in zip(reqs, reqs[1:])
            )
        assert overlapped
        # Tokens served are identical either way.
        assert sorted(r.n_generated for r in ganged.requests) == \
            sorted(r.n_generated for r in sequential.requests)

    def test_gang_requests_pass_invariants(self, tiny_bundle, platform,
                                           tiny_calibration):
        report = run_policy(tiny_bundle, platform, tiny_calibration,
                            "cache-affinity", rate=100.0, concurrency=4)
        for r in report.requests:
            assert r.start_s >= r.arrival_s
            assert r.start_s <= r.first_token_s <= r.finish_s
            assert 0.0 <= r.warm_hit_rate <= 1.0


class TestValidation:
    def test_requires_engines(self):
        generator = object()
        with pytest.raises(ValueError):
            ClusterSimulator([], generator, build_policy("round-robin"))

    def test_concurrency_must_be_positive(self, tiny_bundle, platform,
                                          tiny_calibration):
        engines = build_fleet(tiny_bundle, platform, tiny_calibration)
        generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab, seed=61)
        with pytest.raises(ValueError):
            ClusterSimulator(engines, generator,
                             build_policy("round-robin"), concurrency=0)

    def test_sample_indices_length_checked(self, tiny_bundle, platform,
                                           tiny_calibration):
        engines = build_fleet(tiny_bundle, platform, tiny_calibration)
        generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab, seed=61)
        simulator = ClusterSimulator(engines, generator,
                                     build_policy("round-robin"))
        with pytest.raises(ValueError):
            simulator.run(uniform_arrivals(1.0, 3), 12, 4,
                          sample_indices=[0])
