"""Byte pins of the scenario and cluster report renderings.

Every served-request number in a report (TTFT, TPOT, latency, queue
delay, makespan, throughput, goodput, SLO attainment, the per-tenant and
per-SLO-class breakdowns) is pinned here by the sha256 of the report's
``to_json()``, so a refactor of the report vocabulary must reproduce
every byte.  The runs use ten fast-mode requests, enough for numpy's
pairwise summation to start differing from a left-to-right ``sum()``.
"""

import hashlib

import pytest

from repro.cluster import ClusterSimulator, SLOTarget, build_policy
from repro.core import build_engine
from repro.core.calibration import calibrate_activation_probs
from repro.hardware.presets import default_platform
from repro.model.zoo import build_tiny_moe
from repro.scenarios import ScenarioRunner, get_scenario
from repro.serving import ServingSimulator

#: ``(scenario, backend) -> (ScenarioReport sha256, ClusterReport sha256)``;
#: the serving backends have no cluster report.
PINS = {
    ("mixed-interactive-batch", "cluster-r2-c2"): (
        "5a0e683582a24443738e752f9155a459e214a0aa195ecb49d4bfc0a55cea9c73",
        "633c56aa7786bed130c2e850dbe37ab6f659f7b3dfbd9dc8877288933e5a6931",
    ),
    ("mixed-interactive-batch", "serving-c1"): (
        "682b38c019d9279c6c24bf9809df18623e8174190ae6aa46c8eec4e81f8aa0cf",
        None,
    ),
    ("mixed-interactive-batch", "serving-c2"): (
        "b2100c81181fa565bd1a1960d29d642a2afeae114d2255e0f3945564deeb7563",
        None,
    ),
    ("multi-tenant-slo", "cluster-r2-c2"): (
        "5cb581efd2a4baeec8d433879884b41663edd36c6f8e4160f05436ddde7b392c",
        "2c8c6d68a2f330223dd93ef0ea2f873e5e4dde2a356c0e89c5a538cd376cbbd8",
    ),
    ("multi-tenant-slo", "serving-c1"): (
        "36d3fff75464fb35e28eeb047084d67ffd19006458cc8c50ce840a2b2885daa3",
        None,
    ),
    ("multi-tenant-slo", "serving-c2"): (
        "1d411d859059e5398c8cfe5e222f299f01af05e41dc1fcf4c8d57d115d9ef65f",
        None,
    ),
}


@pytest.fixture(scope="module")
def model():
    """The tiny model at 4 blocks plus its calibration."""
    bundle = build_tiny_moe(seed=0, n_blocks=4)
    calibration = calibrate_activation_probs(
        bundle, n_sequences=3, prompt_len=12, decode_len=12, seed=0
    )
    return bundle, calibration


def _backend(name, bundle, calibration):
    """A fresh serving backend for one pinned run."""
    def engine():
        return build_engine("daop", bundle, default_platform(), 0.5,
                            calibration)

    if name == "serving-c1":
        return ServingSimulator(engine(), concurrency=1)
    if name == "serving-c2":
        return ServingSimulator(engine(), concurrency=2)
    # Targets inside the observed spread split the fleet verdicts.
    return ClusterSimulator([engine(), engine()], None,
                            build_policy("round-robin"),
                            slo=SLOTarget(ttft_s=0.0065, tpot_s=0.0054),
                            concurrency=2)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("scenario,backend", sorted(PINS))
def test_report_bytes_pinned(model, scenario, backend):
    bundle, calibration = model
    runner = ScenarioRunner(get_scenario(scenario), bundle.vocab, seed=0,
                            fast=True, fast_requests=10)
    simulator = _backend(backend, bundle, calibration)
    session = runner.begin(simulator)
    while runner.tick(simulator, session):
        pass
    report = runner.finish(simulator, session)
    scenario_pin, cluster_pin = PINS[(scenario, backend)]
    assert report.n_served == 10
    assert _sha(report.to_json()) == scenario_pin
    if cluster_pin is not None:
        # Sealing a drained cluster session again returns its report.
        cluster_report = simulator.finish_session(session.backend)
        assert _sha(cluster_report.to_json()) == cluster_pin
