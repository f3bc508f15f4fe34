"""Unit tests for ClusterReport metric math (hand-built requests)."""

import json

import pytest

from repro.cluster import (
    EXPIRED,
    SHED,
    ClusterReport,
    ClusterRequest,
    RejectedRequest,
    SLOTarget,
)


def served(request_id, arrival, start, first, finish, n_generated=10,
           replica=0, warm=0.5):
    """A ClusterRequest with explicit timing."""
    return ClusterRequest(
        request_id=request_id, arrival_s=arrival, start_s=start,
        first_token_s=first, finish_s=finish, n_prompt_tokens=8,
        n_generated=n_generated, energy_j=1.0, replica=replica,
        warm_hit_rate=warm,
    )


@pytest.fixture()
def report():
    """Two served requests (one SLO miss) plus one shed, one expired."""
    slo = SLOTarget(ttft_s=2.0, tpot_s=1.0)
    return ClusterReport(
        engine="daop", policy="round-robin", n_replicas=2, slo=slo,
        requests=[
            # ttft 1.0, tpot 7/9 ≈ 0.78 -> meets SLO
            served(0, 0.0, 0.5, 1.0, 8.0, replica=0, warm=0.8),
            # ttft 5.0 -> misses SLO
            served(1, 1.0, 5.0, 6.0, 12.0, replica=1, warm=0.4),
        ],
        rejected=[
            RejectedRequest(request_id=2, arrival_s=2.0, replica=0,
                            reason=SHED),
            RejectedRequest(request_id=3, arrival_s=3.0, replica=1,
                            reason=EXPIRED),
        ],
        replica_busy_s=[7.5, 7.0],
    )


class TestCounts:
    def test_counts(self, report):
        assert report.n_served == 2
        assert report.n_shed == 1
        assert report.n_expired == 1
        assert report.n_offered == 4

    def test_makespan_spans_rejected_arrivals(self, report):
        assert report.makespan_s == 12.0  # 0.0 arrival -> 12.0 finish


class TestSLO:
    def test_meets_slo(self, report):
        first, second = report.requests
        assert report.slo.met(first.ttft_s, first.tpot_s)
        assert not report.slo.met(second.ttft_s, second.tpot_s)

    def test_attainment_over_offered(self, report):
        # 1 of 4 offered requests met SLO (rejections count as misses).
        assert report.slo_attainment == pytest.approx(0.25)

    def test_goodput_below_throughput(self, report):
        assert report.throughput_tokens_per_s == pytest.approx(20 / 12.0)
        assert report.goodput_tokens_per_s == pytest.approx(10 / 12.0)

    def test_percentiles(self, report):
        assert report.ttft_percentile(50) == pytest.approx(3.0)
        assert report.latency_percentile(99) <= 11.0


class TestFleetHealth:
    def test_utilization(self, report):
        utils = report.replica_utilization()
        assert utils == pytest.approx([7.5 / 12.0, 7.0 / 12.0])

    def test_jain_index_near_even(self, report):
        assert 0.99 < report.load_balance_index <= 1.0

    def test_jain_index_one_sided(self):
        lopsided = ClusterReport(engine="daop", policy="p", n_replicas=2,
                                 replica_busy_s=[10.0, 0.0])
        assert lopsided.load_balance_index == pytest.approx(0.5)

    def test_warm_hit_rates(self, report):
        assert report.mean_warm_hit_rate == pytest.approx(0.6)
        assert report.replica_warm_hit_rate(0) == pytest.approx(0.8)
        assert report.replica_warm_hit_rate(1) == pytest.approx(0.4)
        assert report.replica_warm_hit_rate(9) == 0.0


class TestEmptyReport:
    def test_all_metrics_zero_safe(self):
        empty = ClusterReport(engine="daop", policy="p", n_replicas=2)
        assert empty.makespan_s == 0.0
        assert empty.throughput_tokens_per_s == 0.0
        assert empty.goodput_tokens_per_s == 0.0
        assert empty.slo_attainment == 0.0
        assert empty.ttft_percentile(99) == 0.0
        assert empty.tpot_percentile(50) == 0.0
        assert empty.latency_percentile(50) == 0.0
        assert empty.mean_queue_delay_s == 0.0
        assert empty.mean_warm_hit_rate == 0.0
        assert empty.load_balance_index == 1.0
        assert empty.replica_utilization() == []


class TestSerialization:
    def test_to_dict_round_trips_through_json(self, report):
        payload = json.loads(report.to_json())
        assert payload["summary"]["served"] == 2
        assert payload["summary"]["shed"] == 1
        assert payload["summary"]["expired"] == 1
        assert len(payload["requests"]) == 2
        assert len(payload["rejected"]) == 2
        assert len(payload["replicas"]) == 2
        assert payload["requests"][0]["meets_slo"] is True

    def test_json_deterministic(self, report):
        assert report.to_json() == report.to_json()
