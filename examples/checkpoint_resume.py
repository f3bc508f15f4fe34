#!/usr/bin/env python
"""Kill/resume demo: a serving run survives process death bit-exactly.

The lifecycle stack's invariant (docs/lifecycle.md) is that pausing is
free: a simulation checkpointed between ticks, written to disk, and
restored *in a different process* finishes with exactly the report an
uninterrupted run produces.  This example demonstrates that across real
process boundaries by invoking itself three times:

1. ``reference`` — run a small serving workload to completion and
   record each served request's timing tuple;
2. ``pause`` — run the *same* workload, but stop after a few scheduler
   ticks and save a ``SimCheckpoint`` JSON to disk (then exit, as a
   killed worker would);
3. ``resume`` — a fresh process loads the checkpoint into a newly
   built simulator, drains it, and compares every served-request record
   against the reference, bitwise.

Run:  python examples/checkpoint_resume.py [--workdir DIR]
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np

from repro import build_tiny_moe, default_platform
from repro.core import build_engine, calibrate_activation_probs
from repro.scenarios.arrivals import poisson_arrivals
from repro.serving import ServingSimulator, load_checkpoint, save_checkpoint
from repro.workloads import SHAREGPT, SequenceGenerator
from repro.workloads.requests import RequestSpec

N_REQUESTS = 4
PROMPT_LEN = 16
OUTPUT_LEN = 8
CONCURRENCY = 2
RATE_PER_S = 0.05
PAUSE_AFTER_TICKS = 3


def build_simulator():
    """One deterministic serving simulator (same in every process)."""
    bundle = build_tiny_moe(seed=0, n_blocks=4)
    platform = default_platform()
    calibration = calibrate_activation_probs(
        bundle, n_sequences=4, prompt_len=24, decode_len=24
    )
    engine = build_engine("daop", bundle, platform,
                          expert_cache_ratio=0.469,
                          calibration_probs=calibration)
    generator = SequenceGenerator(SHAREGPT, bundle.vocab, seed=7)
    return ServingSimulator(engine, generator, concurrency=CONCURRENCY)


def build_requests(simulator):
    """The demo workload, materialized identically in every process."""
    arrivals = poisson_arrivals(RATE_PER_S, N_REQUESTS,
                                np.random.default_rng(11))
    specs = []
    for i, arrival in enumerate(np.sort(arrivals)):
        sequence = simulator.generator.sample_sequence(
            PROMPT_LEN, OUTPUT_LEN, sample_idx=i
        )
        specs.append(RequestSpec(
            request_id=i,
            arrival_s=float(arrival),
            prompt_tokens=sequence.prompt_tokens,
            output_len=OUTPUT_LEN,
            forced_tokens=sequence.continuation_tokens,
            dataset=SHAREGPT.name,
            sample_idx=i,
        ))
    return specs


def report_records(report):
    """JSON-stable per-request tuples for bitwise comparison."""
    return [
        [r.request_id, r.arrival_s, r.start_s, r.first_token_s,
         r.finish_s, r.n_prompt_tokens, r.n_generated, r.energy_j]
        for r in sorted(report.requests, key=lambda r: r.request_id)
    ]


def stage_reference(workdir):
    """Uninterrupted run; writes the reference records."""
    simulator = build_simulator()
    report = simulator.run_requests(build_requests(simulator))
    path = os.path.join(workdir, "reference.json")
    with open(path, "w") as handle:
        json.dump(report_records(report), handle)
    print(f"reference: served {report.n_served} request(s), "
          f"records written to {path}")


def stage_pause(workdir):
    """Partial run; checkpoints mid-flight and exits like a dead worker."""
    simulator = build_simulator()
    session = simulator.begin_session(build_requests(simulator))
    for _ in range(PAUSE_AFTER_TICKS):
        simulator.tick(session)
    path = os.path.join(workdir, "serving.ckpt.json")
    save_checkpoint(path, simulator.checkpoint(session))
    print(f"pause: checkpointed after {PAUSE_AFTER_TICKS} tick(s) "
          f"to {path}; exiting mid-run")


def stage_resume(workdir):
    """Fresh process: restore, drain, and compare against the reference."""
    simulator = build_simulator()
    session = simulator.restore(
        load_checkpoint(os.path.join(workdir, "serving.ckpt.json"))
    )
    while simulator.tick(session):
        pass
    resumed = report_records(simulator.finish_session(session))
    with open(os.path.join(workdir, "reference.json")) as handle:
        reference = json.load(handle)
    if resumed != reference:
        print("FAIL: resumed run diverged from the uninterrupted run")
        return 1
    print(f"resume: {len(resumed)} served request(s) match the "
          "uninterrupted run bitwise")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="checkpoint_resume_demo",
                        help="where checkpoint + reference files go")
    parser.add_argument("--stage",
                        choices=("reference", "pause", "resume"),
                        default=None,
                        help="internal: run one stage in this process")
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)

    if args.stage == "reference":
        stage_reference(args.workdir)
        return 0
    if args.stage == "pause":
        stage_pause(args.workdir)
        return 0
    if args.stage == "resume":
        return stage_resume(args.workdir)

    # Orchestrate: three separate processes, so the resume really does
    # cross a process boundary (nothing shared but the files on disk).
    for stage in ("reference", "pause", "resume"):
        code = subprocess.call([
            sys.executable, os.path.abspath(__file__),
            "--workdir", args.workdir, "--stage", stage,
        ])
        if code != 0:
            return code
    print("checkpoint/kill/resume demo passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
