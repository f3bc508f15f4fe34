#!/usr/bin/env python
"""Serve bursty chat traffic and compare user-visible latency per engine.

The paper measures single-request throughput; this example extends the
reproduction to deployment: Poisson/bursty arrivals are served FIFO at
batch size one (the paper's regime) and we report time-to-first-token and
end-to-end latency percentiles.  Faster engines do not just raise
throughput -- they shorten queues, which compounds into tail latency.

Run:  python examples/serving_simulation.py
"""

import numpy as np

from repro import build_mixtral_8x7b_sim, default_platform
from repro.core import build_engine, calibrate_activation_probs
from repro.metrics import format_table
from repro.scenarios.arrivals import bursty_arrivals
from repro.serving import ServingSimulator
from repro.workloads import SHAREGPT, SequenceGenerator

N_REQUESTS = 8
RATE_PER_S = 0.04        # one request every ~25 s of simulated time
PROMPT_LEN = 64
OUTPUT_LEN = 64


def main() -> None:
    bundle = build_mixtral_8x7b_sim(seed=0, n_blocks=16)
    platform = default_platform()
    calibration = calibrate_activation_probs(
        bundle, n_sequences=4, prompt_len=24, decode_len=24
    )
    arrivals = bursty_arrivals(
        RATE_PER_S, N_REQUESTS, np.random.default_rng(11), burst_size=3,
        burst_spread_s=2.0,
    )

    rows = []
    for name in ("moe-ondemand", "fiddler", "daop"):
        engine = build_engine(name, bundle, platform,
                              expert_cache_ratio=0.469,
                              calibration_probs=calibration)
        generator = SequenceGenerator(SHAREGPT, bundle.vocab, seed=9)
        report = ServingSimulator(engine, generator).run(
            arrivals, PROMPT_LEN, OUTPUT_LEN
        )
        rows.append([
            name,
            report.throughput_tokens_per_s,
            report.ttft_percentile(50),
            report.ttft_percentile(95),
            report.latency_percentile(95),
            report.mean_queue_delay_s,
        ])
        print(f"served {N_REQUESTS} requests with {name} ...")

    print()
    print(format_table(
        ["engine", "tok/s", "TTFT p50 (s)", "TTFT p95 (s)",
         "latency p95 (s)", "mean queue (s)"],
        rows,
        title=f"Bursty serving: {N_REQUESTS} requests @ {RATE_PER_S}/s, "
              f"in/out {PROMPT_LEN}/{OUTPUT_LEN}",
    ))
    print()
    print("Expected shape: MoE-OnDemand's ~1 tok/s service time makes its")
    print("queue explode under bursts (p95 latency dominated by waiting);")
    print("DAOP's shorter service times keep both TTFT and tail latency")
    print("bounded even at the same arrival rate.")


if __name__ == "__main__":
    main()
