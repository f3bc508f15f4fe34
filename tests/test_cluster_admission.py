"""Unit tests for admission control and SLO targets."""

import pytest

from repro.cluster import EXPIRED, SHED, AdmissionController, SLOTarget


class TestSLOTarget:
    def test_defaults(self):
        slo = SLOTarget()
        assert slo.ttft_s > 0 and slo.tpot_s > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SLOTarget(ttft_s=0.0)
        with pytest.raises(ValueError):
            SLOTarget(tpot_s=-1.0)

    def test_met_needs_both_targets_inclusive(self):
        slo = SLOTarget(ttft_s=2.0, tpot_s=0.5)
        assert slo.met(2.0, 0.5)
        assert not slo.met(2.1, 0.1)
        assert not slo.met(0.1, 0.6)

    def test_class_targets_are_slo_targets(self):
        from repro.workloads import SLO_CLASS_TARGETS, SLO_CLASSES

        assert set(SLO_CLASS_TARGETS) == set(SLO_CLASSES)
        assert all(isinstance(t, SLOTarget)
                   for t in SLO_CLASS_TARGETS.values())


class TestAdmissionController:
    def test_admit_bounds_queue(self):
        admission = AdmissionController(max_queue_len=2)
        assert admission.admit(0)
        assert admission.admit(1)
        assert not admission.admit(2)
        assert not admission.admit(5)

    def test_no_deadline_never_expires(self):
        admission = AdmissionController()
        assert not admission.expired(arrival_s=0.0, now=1e9)

    def test_deadline_expiry(self):
        admission = AdmissionController(ttft_deadline_s=5.0)
        assert not admission.expired(arrival_s=10.0, now=15.0)  # exactly at
        assert admission.expired(arrival_s=10.0, now=15.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_len=0)
        with pytest.raises(ValueError):
            AdmissionController(ttft_deadline_s=0.0)

    def test_reason_constants_distinct(self):
        assert SHED != EXPIRED
