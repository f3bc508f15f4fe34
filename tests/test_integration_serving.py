"""Cross-engine serving integration: speed compounds into tail latency."""

import pytest

from repro.core import build_engine
from repro.scenarios.arrivals import uniform_arrivals
from repro.serving import ServingSimulator
from repro.workloads import SHAREGPT, SequenceGenerator

N_REQUESTS = 5
PROMPT = 16
OUTPUT = 10


@pytest.fixture(scope="module")
def reports(tiny_bundle, platform, tiny_calibration):
    out = {}
    # Arrivals tight enough that the slow engine is forced to queue.
    arrivals = uniform_arrivals(20.0, N_REQUESTS)
    for name in ("moe-ondemand", "fiddler", "daop"):
        engine = build_engine(name, tiny_bundle, platform, 0.25,
                              tiny_calibration)
        generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab,
                                      seed=121)
        out[name] = ServingSimulator(engine, generator).run(
            arrivals, PROMPT, OUTPUT
        )
    return out


def test_all_served(reports):
    for report in reports.values():
        assert report.n_requests == N_REQUESTS


def test_faster_engine_higher_throughput(reports):
    assert (reports["daop"].throughput_tokens_per_s
            >= reports["fiddler"].throughput_tokens_per_s)
    assert (reports["fiddler"].throughput_tokens_per_s
            > reports["moe-ondemand"].throughput_tokens_per_s)


def test_queueing_amplifies_tail_latency(reports):
    """Under identical arrivals, service-time gaps compound at p95."""
    assert (reports["daop"].latency_percentile(95)
            < reports["moe-ondemand"].latency_percentile(95))
    assert (reports["daop"].mean_queue_delay_s
            <= reports["moe-ondemand"].mean_queue_delay_s)


def test_ttft_ordering(reports):
    assert (reports["daop"].ttft_percentile(95)
            < reports["moe-ondemand"].ttft_percentile(95))
