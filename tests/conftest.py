"""Shared fixtures: a tiny functional model, platform, and calibration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.calibration import calibrate_activation_probs
from repro.hardware.presets import default_platform, paper_table1_platform
from repro.model.zoo import build_tiny_moe


@pytest.fixture(scope="session")
def tiny_bundle():
    """An 8-block, 4-expert, top-2 model small enough for fast tests."""
    return build_tiny_moe(seed=0, n_blocks=8)


@pytest.fixture(scope="session")
def platform():
    """The paper's evaluation platform (A6000 + i9)."""
    return default_platform()


@pytest.fixture(scope="session")
def table1_platform():
    """The paper's Table I microbenchmark platform (A100 + Xeon)."""
    return paper_table1_platform()


@pytest.fixture(scope="session")
def tiny_calibration(tiny_bundle):
    """Calibrated activation probabilities for the tiny model."""
    return calibrate_activation_probs(
        tiny_bundle, n_sequences=3, prompt_len=12, decode_len=12, seed=0
    )


@pytest.fixture()
def rng():
    """A deterministic random generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def audit_result():
    """Post-hoc invariant audit: ``audit_result(engine, result)``.

    Runs :func:`repro.audit.audit_generation` on a finished generation
    (timeline causality, counter conservation, upload/placement
    bookkeeping, energy consistency, divergence provenance) and fails
    the test with the formatted report if any invariant is violated.
    """
    from repro.audit import audit_generation

    def _audit(engine, result, platform=None):
        report = audit_generation(engine, result, platform=platform)
        assert report.ok, report.format()
        return report

    return _audit
