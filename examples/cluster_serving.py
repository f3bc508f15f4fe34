#!/usr/bin/env python
"""Fleet serving: routing policies compared on similarity-clustered traffic.

DAOP's sequence-specific expert allocation (Algorithm 1) shapes each
replica's GPU expert cache after the traffic it serves, so *which*
replica a request lands on matters: a replica warmed on similar requests
already holds their dominant experts.  This example serves the same
clustered arrival trace (a few "session" groups issuing similar
requests) through a 2-replica fleet under three routing policies —
round-robin, join-shortest-queue, and cache-affinity — for DAOP and for
the Fiddler baseline, under both Poisson and bursty arrivals.

Expected shape: for DAOP, cache-affinity routing lifts the start-of-
service expert-cache hit rate and slashes prefill swap churn versus
round-robin; Fiddler's static placement cannot benefit, isolating the
effect to DAOP's data-aware allocation.  The combined results are also
written as JSON (``--json``) so CI can archive serving-trajectory
numbers across PRs.

Run:  python examples/cluster_serving.py [--json cluster_serving_report.json]
"""

import argparse
import json

import numpy as np

from repro import build_mixtral_8x7b_sim, default_platform
from repro.cluster import (
    AdmissionController,
    ClusterSimulator,
    SLOTarget,
    build_policy,
)
from repro.core import build_engine, calibrate_activation_probs
from repro.metrics import format_table
from repro.scenarios.arrivals import bursty_arrivals, poisson_arrivals
from repro.workloads import SHAREGPT, SequenceGenerator

N_REPLICAS = 2
N_REQUESTS = 12
N_CLUSTERS = 3
RATE_PER_S = 0.02        # one request every ~50 s of simulated time
PROMPT_LEN = 24
OUTPUT_LEN = 12
POLICIES = ("round-robin", "join-shortest-queue", "cache-affinity")
ENGINES = ("daop", "fiddler")
SLO = SLOTarget(ttft_s=60.0, tpot_s=2.0)

# Clustered but non-cyclic: round-robin cannot accidentally align with it.
SAMPLE_PATTERN = [0, 1, 2, 2, 0, 1, 1, 2, 0, 0, 1, 2]


def run_one(bundle, platform, calibration, engine_name, policy_name,
            arrivals):
    """Simulate one (engine, policy) fleet over one arrival trace."""
    engines = [
        build_engine(engine_name, bundle, platform,
                     expert_cache_ratio=0.469,
                     calibration_probs=calibration)
        for _ in range(N_REPLICAS)
    ]
    generator = SequenceGenerator(SHAREGPT, bundle.vocab, seed=9)
    simulator = ClusterSimulator(
        engines, generator, build_policy(policy_name),
        admission=AdmissionController(max_queue_len=8),
        slo=SLO,
    )
    return simulator.run(arrivals, PROMPT_LEN, OUTPUT_LEN,
                         sample_indices=SAMPLE_PATTERN[:N_REQUESTS])


def main() -> None:
    """Compare routing policies per engine and arrival process."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default="cluster_serving_report.json",
                        help="write combined ClusterReport JSON here")
    args = parser.parse_args()

    bundle = build_mixtral_8x7b_sim(seed=0, n_blocks=8)
    platform = default_platform()
    calibration = calibrate_activation_probs(
        bundle, n_sequences=4, prompt_len=24, decode_len=24
    )
    arrival_traces = {
        "poisson": poisson_arrivals(
            RATE_PER_S, N_REQUESTS, np.random.default_rng(11)
        ),
        "bursty": bursty_arrivals(
            RATE_PER_S, N_REQUESTS, np.random.default_rng(12),
            burst_size=3, burst_spread_s=2.0,
        ),
    }

    combined = {}
    for arrival_name, arrivals in arrival_traces.items():
        rows = []
        for engine_name in ENGINES:
            for policy_name in POLICIES:
                report = run_one(bundle, platform, calibration,
                                 engine_name, policy_name, arrivals)
                combined[f"{arrival_name}/{engine_name}/{policy_name}"] = (
                    report.to_dict()
                )
                rows.append([
                    engine_name, policy_name,
                    report.goodput_tokens_per_s,
                    f"{100 * report.slo_attainment:.0f}%",
                    report.ttft_percentile(50),
                    f"{100 * report.mean_warm_hit_rate:.1f}%",
                    sum(r.prefill_swaps for r in report.requests),
                    report.load_balance_index,
                ])
        print()
        print(format_table(
            ["engine", "policy", "goodput tok/s", "SLO", "TTFT p50 (s)",
             "cache warm", "swaps", "balance"],
            rows,
            title=f"{arrival_name} arrivals: {N_REQUESTS} requests @ "
                  f"{RATE_PER_S}/s, {N_CLUSTERS} similarity clusters, "
                  f"{N_REPLICAS} replicas",
        ))

    daop_rr = combined["poisson/daop/round-robin"]["summary"]
    daop_aff = combined["poisson/daop/cache-affinity"]["summary"]
    print()
    print("DAOP expert-cache hit rate at service start (Poisson trace):")
    print(f"  round-robin    : {100 * daop_rr['mean_warm_hit_rate']:.1f}%")
    print(f"  cache-affinity : {100 * daop_aff['mean_warm_hit_rate']:.1f}%")
    print("Cache-affinity routing keeps each DAOP replica's expert cache")
    print("tuned to one traffic cluster, so requests find their dominant")
    print("experts already GPU-resident (fewer Algorithm-1 swaps, lower")
    print("TTFT); load-oblivious round-robin destroys that warmth.")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(combined, handle, indent=2, sort_keys=True)
        print(f"\ncombined cluster reports written to {args.json}")


if __name__ == "__main__":
    main()
