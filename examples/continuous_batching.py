#!/usr/bin/env python
"""Batch several requests on one engine in gathered cohorts.

The paper serves one request at a time; this example drives the engine
core's resumable step machine (``start``/``step``/``finish``) through
:class:`repro.sched.ContinuousBatchScheduler` so several sequences share
the four hardware lanes at once.  Each scheduler round advances every
resident sequence in cohorts: decode tokens routed to the same expert
*across sequences* merge into one kernel launch priced by the cost
model's batch-efficiency curves, so lane-busy time drops and decode
throughput rises, while every sequence's token stream stays bitwise
identical to its solo run.  ``max_batch=1`` is the paper's
batch-size-one service: every cohort holds one sequence.

Run:  python examples/continuous_batching.py
"""

from repro import build_mixtral_8x7b_sim, default_platform
from repro.core import build_engine, calibrate_activation_probs
from repro.core.engine import SequenceRequest
from repro.metrics import format_table
from repro.sched import ContinuousBatchScheduler
from repro.workloads import SHAREGPT, SequenceGenerator

N_REQUESTS = 6
PROMPT_LEN = 48
OUTPUT_LEN = 32
BATCH_SIZES = (1, 2, 4)


def main() -> None:
    bundle = build_mixtral_8x7b_sim(seed=0, n_blocks=16)
    platform = default_platform()
    calibration = calibrate_activation_probs(
        bundle, n_sequences=4, prompt_len=24, decode_len=24
    )

    generator = SequenceGenerator(SHAREGPT, bundle.vocab, seed=9)
    requests = []
    for i in range(N_REQUESTS):
        sequence = generator.sample_sequence(PROMPT_LEN, OUTPUT_LEN,
                                             sample_idx=i)
        requests.append(SequenceRequest(
            prompt_tokens=sequence.prompt_tokens,
            max_new_tokens=OUTPUT_LEN,
            forced_tokens=sequence.continuation_tokens,
            seq_id=i,
        ))

    rows = []
    for batch_size in BATCH_SIZES:
        engine = build_engine("daop", bundle, platform,
                              expert_cache_ratio=0.469,
                              calibration_probs=calibration)
        scheduler = ContinuousBatchScheduler(engine, max_batch=batch_size)
        report = scheduler.run(requests)
        rows.append([
            batch_size,
            report.makespan_s,
            f"{100 * report.overlap_ratio:.0f}%",
            report.throughput_tokens_per_s,
            report.mean_ttft_s(),
            f"{report.n_expert_kernels}/{report.n_expert_ops}",
        ])
        print(f"served {N_REQUESTS} requests at max_batch={batch_size} ...")

    print()
    print(format_table(
        ["batch", "makespan (s)", "overlap", "tok/s", "mean TTFT (s)",
         "kernels/ops"],
        rows,
        title=f"DAOP continuous batching: {N_REQUESTS} requests, "
              f"in/out {PROMPT_LEN}/{OUTPUT_LEN}",
    ))
    print()
    print("Expected shape: at batch 1 the service spans tile the makespan")
    print("(overlap 0%) and kernels equal ops -- a cohort of one has")
    print("nothing to gather.  At batch 4 the cohorts merge same-expert")
    print("kernels across sequences (kernels < ops), shrinking the")
    print("makespan, lifting throughput and collapsing mean TTFT at")
    print("identical token streams.")


if __name__ == "__main__":
    main()
