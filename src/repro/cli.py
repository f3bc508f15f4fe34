"""Command-line interface for the DAOP reproduction.

Subcommands::

    repro info                         model + platform + Table I summary
    repro speed    [--engines ...]     throughput/energy comparison
    repro accuracy [--task ...]        harness accuracy vs the oracle
    repro observe  [--dataset ...]     similarity + prediction statistics
    repro serve    [--rate ...]        request-level serving simulation
    repro serve-cluster [--policy ...] multi-replica cluster simulation
    repro watch    [--engine ...]      live event stream from a serving run
    repro scenarios {list,run,replay,compare}  scenario library driver
    repro bench-batch [--batch-sizes ...] continuous-batching benchmark
    repro bench-compute [--seeds ...]  compute-cache cold/warm counted work
    repro trace    [--engine ...]      schedule analysis + Chrome trace
    repro audit    [--engines ...]     differential + step/resume parity audit
    repro lint     [paths ...]         daoplint static invariant checker

Every command accepts ``--model {mixtral,phi,tiny}``, ``--blocks N`` (to
shrink the functional model), and ``--seed``.  All results are simulated:
no GPU is required.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis import summarize_schedule
from repro.cluster import (
    POLICY_NAMES,
    AdmissionController,
    ClusterSimulator,
    SLOTarget,
    build_policy,
)
from repro.core import ENGINE_NAMES, build_engine
from repro.core.calibration import calibrate_activation_probs
from repro.eval.harness import AccuracyHarness
from repro.hardware.cost_model import CostModel
from repro.hardware.presets import default_platform
from repro.metrics import format_table, summarize_results
from repro.model.zoo import (
    build_mixtral_8x7b_sim,
    build_phi_3_5_moe_sim,
    build_tiny_moe,
)
from repro.scenarios.arrivals import bursty_arrivals, poisson_arrivals
from repro.serving import ServingSimulator
from repro.trace.export import timeline_to_chrome_trace
from repro.workloads import SequenceGenerator, get_dataset, get_task

_BUILDERS = {
    "mixtral": build_mixtral_8x7b_sim,
    "phi": build_phi_3_5_moe_sim,
    "tiny": build_tiny_moe,
}

DEFAULT_ENGINES = ("moe-ondemand", "fiddler", "daop")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=sorted(_BUILDERS),
                        default="mixtral", help="model analogue to build")
    parser.add_argument("--blocks", type=int, default=16,
                        help="functional block count (paper topology: 32)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ecr", type=float, default=0.469,
                        help="expert cache ratio for cached engines")


def _positive_int(text: str) -> int:
    """argparse type for counts and lengths that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build(args):
    builder = _BUILDERS[args.model]
    kwargs = {"seed": args.seed}
    if args.model == "tiny":
        kwargs["n_blocks"] = min(args.blocks, 8)
    else:
        kwargs["n_blocks"] = args.blocks
    return builder(**kwargs)


def _calibrate(bundle):
    return calibrate_activation_probs(
        bundle, n_sequences=4, prompt_len=24, decode_len=24
    )


def cmd_info(args) -> int:
    """Print model, platform, and Table I cost-model summary."""
    bundle = _build(args)
    platform = default_platform()
    arch = bundle.arch
    cm = CostModel(arch, platform)
    rows = [
        ["model", arch.name],
        ["blocks x experts (top-k)",
         f"{arch.n_blocks} x {arch.n_experts} (top-{arch.top_k})"],
        ["total params", f"{arch.total_params / 1e9:.1f} B"],
        ["expert params", f"{arch.total_expert_params / 1e9:.1f} B"],
        ["activated per token", f"{100 * arch.activated_fraction:.1f} %"],
        ["expert size (fp16)", f"{arch.expert_bytes / 1e6:.0f} MB"],
        ["platform", f"{platform.gpu.name} + {platform.cpu.name}"],
        ["GPU expert slots",
         f"{cm.gpu_expert_slots()} of {arch.n_blocks * arch.n_experts} "
         f"(ECR {cm.gpu_expert_slots() / (arch.n_blocks * arch.n_experts):.1%})"],
        ["GPU block (decode)",
         f"{1e3 * cm.block_time(platform.gpu, 1, 256):.2f} ms"],
        ["CPU block (decode)",
         f"{1e3 * cm.block_time(platform.cpu, 1, 256):.2f} ms"],
        ["expert upload", f"{1e3 * cm.expert_transfer_time():.2f} ms"],
    ]
    print(format_table(["property", "value"], rows, title="repro info"))
    return 0


def cmd_speed(args) -> int:
    """Compare engine throughput and energy on one workload."""
    bundle = _build(args)
    platform = default_platform()
    calibration = _calibrate(bundle)
    dataset = get_dataset(args.dataset)
    generator = SequenceGenerator(dataset, bundle.vocab, seed=args.seed + 1)
    sequences = [
        generator.sample_sequence(args.input_len, args.output_len,
                                  sample_idx=i)
        for i in range(args.sequences)
    ]
    rows = []
    for name in args.engines:
        engine = build_engine(name, bundle, platform,
                              expert_cache_ratio=args.ecr,
                              calibration_probs=calibration)
        results = [
            engine.generate(s.prompt_tokens, args.output_len,
                            forced_tokens=s.continuation_tokens)
            for s in sequences
        ]
        summary = summarize_results(name, results)
        rows.append([
            name, summary.tokens_per_second,
            summary.tokens_per_kilojoule,
            f"{100 * summary.gpu_hit_rate:.0f}%",
        ])
    print(format_table(
        ["engine", "tok/s", "tok/kJ", "gpu hits"],
        rows,
        title=f"speed: {args.model}, {args.dataset}, "
              f"in/out {args.input_len}/{args.output_len}, "
              f"ECR {args.ecr:.1%}",
    ))
    return 0


def cmd_accuracy(args) -> int:
    """Score an engine against the official oracle on one task."""
    bundle = _build(args)
    platform = default_platform()
    calibration = _calibrate(bundle)
    task = get_task(args.task)
    harness = AccuracyHarness(bundle, platform, seed=args.seed + 3)
    official = harness.evaluate_official(task, n_samples=args.samples)
    rows = [["official", "-", 100 * official.score]]
    for name in args.engines:
        if name == "official":
            continue
        engine = build_engine(name, bundle, platform,
                              expert_cache_ratio=args.ecr,
                              calibration_probs=calibration)
        result = harness.evaluate(engine, task, n_samples=args.samples)
        rows.append([name, f"{args.ecr:.1%}", 100 * result.score])
    print(format_table(
        ["engine", "ECR", f"{task.metric} (%)"], rows,
        title=f"accuracy: {args.task} ({task.n_samples} max samples)",
    ))
    return 0


def cmd_observe(args) -> int:
    """Measure the paper's observation statistics on one dataset."""
    from repro.trace import ActivationTrace, matrix_similarity

    bundle = _build(args)
    model = bundle.model
    dataset = get_dataset(args.dataset)
    generator = SequenceGenerator(dataset, bundle.vocab, seed=args.seed + 4)
    sims = []
    for i in range(args.sequences):
        sequence = generator.sample_sequence(48, 48, sample_idx=i)
        trace = ActivationTrace(model.n_blocks, model.n_experts)
        caches = model.new_caches()
        _, decisions = model.forward_exact(sequence.prompt_tokens, caches)
        for b, decision in enumerate(decisions):
            for t in range(decision.n_tokens):
                trace.record("prefill", b, t, decision.experts[t])
        position = sequence.prompt_tokens.size
        for token in sequence.continuation_tokens:
            _, decisions = model.forward_exact(
                np.asarray([token]), caches, start_pos=position
            )
            for b, decision in enumerate(decisions):
                trace.record("decode", b, position, decision.experts[0])
            position += 1
        sims.append(matrix_similarity(
            trace.activation_matrix("prefill"),
            trace.activation_matrix("decode"),
        ))
    # Routing-structure statistics over the last sequence's trace.
    from repro.trace.statistics import expert_load_stats, temporal_locality

    load = expert_load_stats(trace)
    locality = float(np.mean([
        temporal_locality(trace, b) for b in range(model.n_blocks)
    ]))
    print(format_table(
        ["statistic", "value"],
        [["prefill/decode similarity (Eq. 1)",
          f"{100 * float(np.mean(sims)):.2f} %"],
         ["mean per-block load Gini", f"{load['mean_gini']:.3f}"],
         ["mean per-block load entropy", f"{load['mean_entropy']:.3f}"],
         ["mean decode temporal locality", f"{locality:.3f}"],
         ["sequences", args.sequences]],
        title=f"observe: {args.dataset}",
    ))
    return 0


def cmd_serve(args) -> int:
    """Run the request-level serving simulation."""
    bundle = _build(args)
    platform = default_platform()
    calibration = _calibrate(bundle)
    rows = []
    for name in args.engines:
        engine = build_engine(name, bundle, platform,
                              expert_cache_ratio=args.ecr,
                              calibration_probs=calibration)
        generator = SequenceGenerator(
            get_dataset(args.dataset), bundle.vocab, seed=args.seed + 5
        )
        simulator = ServingSimulator(engine, generator,
                                     concurrency=args.concurrency)
        arrivals = poisson_arrivals(
            args.rate, args.requests,
            np.random.default_rng(args.seed + 6),
        )
        report = simulator.run(arrivals, args.input_len, args.output_len)
        rows.append([
            name,
            report.throughput_tokens_per_s,
            report.ttft_percentile(50), report.ttft_percentile(95),
            report.latency_percentile(95),
            report.mean_queue_delay_s,
        ])
    print(format_table(
        ["engine", "tok/s", "TTFT p50 (s)", "TTFT p95 (s)",
         "latency p95 (s)", "queue (s)"],
        rows,
        title=f"serve: {args.requests} requests @ {args.rate}/s "
              f"({args.dataset})",
    ))
    return 0


def cmd_serve_cluster(args) -> int:
    """Run the multi-replica cluster serving simulation."""
    bundle = _build(args)
    platform = default_platform()
    calibration = _calibrate(bundle)
    rng = np.random.default_rng(args.seed + 6)
    if args.arrivals == "bursty":
        arrivals = bursty_arrivals(args.rate, args.requests, rng)
    else:
        arrivals = poisson_arrivals(args.rate, args.requests, rng)
    sample_indices = None
    if args.clusters:
        sample_indices = [i % args.clusters for i in range(args.requests)]
    rows = []
    report = None
    for policy_name in args.policies:
        engines = [
            build_engine(args.engine, bundle, platform,
                         expert_cache_ratio=args.ecr,
                         calibration_probs=calibration)
            for _ in range(args.replicas)
        ]
        generator = SequenceGenerator(
            get_dataset(args.dataset), bundle.vocab, seed=args.seed + 5
        )
        simulator = ClusterSimulator(
            engines, generator, build_policy(policy_name),
            admission=AdmissionController(
                max_queue_len=args.max_queue,
                ttft_deadline_s=args.ttft_deadline,
            ),
            slo=SLOTarget(ttft_s=args.slo_ttft, tpot_s=args.slo_tpot),
            concurrency=args.concurrency,
        )
        report = simulator.run(arrivals, args.input_len, args.output_len,
                               sample_indices=sample_indices)
        rows.append([
            policy_name,
            report.goodput_tokens_per_s,
            f"{100 * report.slo_attainment:.0f}%",
            report.ttft_percentile(50), report.ttft_percentile(99),
            f"{100 * report.mean_warm_hit_rate:.0f}%",
            report.load_balance_index,
            f"{report.n_shed}/{report.n_expired}",
        ])
    print(format_table(
        ["policy", "goodput tok/s", "SLO", "TTFT p50 (s)", "TTFT p99 (s)",
         "cache warm", "balance", "shed/expired"],
        rows,
        title=f"serve-cluster: {args.engine} x{args.replicas}, "
              f"{args.requests} requests @ {args.rate}/s "
              f"({args.arrivals}, {args.dataset})",
    ))
    if args.json and report is not None:
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
        print(f"cluster report ({args.policies[-1]}) written to {args.json}")
    return 0


def cmd_watch(args) -> int:
    """Stream live lifecycle events from a serving simulation."""
    from repro.events import EVENT_KINDS, JsonlEventWriter, format_event

    bundle = _build(args)
    platform = default_platform()
    calibration = _calibrate(bundle)
    engine = build_engine(args.engine, bundle, platform,
                          expert_cache_ratio=args.ecr,
                          calibration_probs=calibration)
    generator = SequenceGenerator(
        get_dataset(args.dataset), bundle.vocab, seed=args.seed + 5
    )
    simulator = ServingSimulator(engine, generator,
                                 concurrency=args.concurrency)
    counts: dict = {}

    def on_event(event) -> None:
        counts[event.kind] = counts.get(event.kind, 0) + 1
        print(format_event(event))

    kinds = tuple(args.kinds) if args.kinds else None
    simulator.events.subscribe(on_event, kinds=kinds)
    writer = None
    if args.jsonl:
        writer = JsonlEventWriter(args.jsonl)
        simulator.events.subscribe(writer)
    arrivals = poisson_arrivals(
        args.rate, args.requests, np.random.default_rng(args.seed + 6)
    )
    report = simulator.run(arrivals, args.input_len, args.output_len)
    if writer is not None:
        writer.close()
        print(f"{writer.n_written} event(s) written to {args.jsonl}")
    breakdown = "  ".join(
        f"{kind}={counts[kind]}" for kind in EVENT_KINDS if kind in counts
    )
    print(f"watched {report.n_requests} request(s) on {args.engine} "
          f"(concurrency {args.concurrency}): "
          f"{sum(counts.values())} event(s) [{breakdown}]")
    return 0


def _scenario_backend(args, bundle, platform, calibration):
    """Build the serving backend one scenario run drives."""
    if args.replicas > 1:
        engines = [
            build_engine(args.engine, bundle, platform,
                         expert_cache_ratio=args.ecr,
                         calibration_probs=calibration)
            for _ in range(args.replicas)
        ]
        return ClusterSimulator(
            engines, None, build_policy(args.policy),
            concurrency=args.concurrency,
        )
    engine = build_engine(args.engine, bundle, platform,
                          expert_cache_ratio=args.ecr,
                          calibration_probs=calibration)
    return ServingSimulator(engine, concurrency=args.concurrency)


def _scenarios_compare(paths) -> int:
    """Diff two scenario-report JSON files; 0 iff digests match."""
    import json

    payloads = []
    for path in paths:
        with open(path) as handle:
            payloads.append(json.load(handle))
    a, b = payloads
    if a.get("digest") and a.get("digest") == b.get("digest"):
        print(f"reports identical (digest {a['digest']})")
        return 0
    print(f"digest: {a.get('digest')} != {b.get('digest')}")
    for key in sorted(set(a.get("summary", {})) | set(b.get("summary", {}))):
        va = a.get("summary", {}).get(key)
        vb = b.get("summary", {}).get(key)
        if va != vb:
            print(f"summary.{key}: {va!r} != {vb!r}")
    for field in ("scenario", "engine", "mode", "seed"):
        if a.get(field) != b.get(field):
            print(f"{field}: {a.get(field)!r} != {b.get(field)!r}")
    return 1


def cmd_scenarios(args) -> int:
    """Scenario library: list, run, replay, and compare scenarios."""
    import os

    from repro.scenarios import SCENARIO_NAMES, ScenarioRunner, get_scenario
    from repro.workloads.replay import (
        load_request_specs,
        record_request_specs,
        save_workload,
    )

    if args.action == "list":
        rows = []
        for name in SCENARIO_NAMES:
            spec = get_scenario(name)
            rows.append([
                name, spec.arrival.kind, spec.arrival.n_requests,
                len(spec.tenants), spec.description,
            ])
        print(format_table(
            ["scenario", "arrivals", "requests", "tenants", "description"],
            rows, title="registered scenarios",
        ))
        return 0

    if args.action == "compare":
        if len(args.names) != 2:
            print("compare takes exactly two report JSON paths")
            return 2
        return _scenarios_compare(args.names)

    if args.action == "replay":
        if args.workload is None or len(args.names) != 1:
            print("replay takes exactly one scenario name and --workload")
            return 2
        names = list(args.names)
    else:  # run
        names = list(args.names) if args.names else list(SCENARIO_NAMES)
        if args.all:
            names = list(SCENARIO_NAMES)
        unknown = [n for n in names if n not in SCENARIO_NAMES]
        if unknown:
            print(f"unknown scenario(s): {unknown}; known: "
                  f"{list(SCENARIO_NAMES)}")
            return 2

    lifecycle = (args.resume_from is not None
                 or args.pause_after is not None)
    if args.pause_after is not None and not args.checkpoint_to:
        print("--pause-after needs --checkpoint-to PATH to save into")
        return 2
    if lifecycle and len(names) != 1:
        print("--resume-from/--pause-after operate on exactly one "
              "scenario")
        return 2

    bundle = _build(args)
    platform = default_platform()
    calibration = _calibrate(bundle)
    for directory in (args.out_dir, args.record):
        if directory:
            os.makedirs(directory, exist_ok=True)
    rows = []
    for name in names:
        spec = get_scenario(name)
        runner = ScenarioRunner(spec, bundle.vocab, seed=args.seed,
                                fast=args.fast)
        requests = None
        if args.action == "replay":
            requests = load_request_specs(args.workload)
        backend = _scenario_backend(args, bundle, platform, calibration)
        if not lifecycle:
            report = runner.run(backend, requests=requests)
        else:
            from repro.serving import (
                CheckpointError,
                load_checkpoint,
                save_checkpoint,
            )

            try:
                if args.resume_from:
                    session = runner.resume(
                        backend, load_checkpoint(args.resume_from),
                        requests=requests,
                    )
                    print(f"resumed {name} from {args.resume_from}")
                else:
                    session = runner.begin(backend, requests=requests)
            except CheckpointError as exc:
                print(f"cannot resume: {exc}")
                return 1
            alive = True
            if args.pause_after is not None:
                ticks = 0
                while alive and ticks < args.pause_after:
                    alive = runner.tick(backend, session)
                    ticks += 1
            while alive and args.pause_after is None:
                alive = runner.tick(backend, session)
            if alive:
                save_checkpoint(args.checkpoint_to,
                                backend.checkpoint(session.backend))
                print(f"{name} paused after {args.pause_after} tick(s); "
                      f"checkpoint written to {args.checkpoint_to} "
                      f"(resume with --resume-from)")
                return 0
            report = runner.finish(backend, session)
        if args.record:
            specs = requests if requests is not None \
                else runner.build_requests()
            workload_path = os.path.join(args.record,
                                         f"{name}.workload.json")
            save_workload(workload_path,
                          record_request_specs(specs, label=name))
            print(f"workload recorded to {workload_path}")
        if args.out_dir:
            report_path = os.path.join(args.out_dir, f"{name}.json")
            with open(report_path, "w") as handle:
                handle.write(report.to_json())
                handle.write("\n")
        summary = report.to_dict()["summary"]
        rows.append([
            name, report.mode, f"{summary['served']}/{summary['offered']}",
            f"{100 * summary['slo_attainment']:.0f}%",
            summary["throughput_tokens_per_s"],
            summary["ttft_p95_s"],
            report.content_digest()[:12],
        ])
    print(format_table(
        ["scenario", "mode", "served", "SLO", "tok/s", "TTFT p95 (s)",
         "digest"],
        rows,
        title=f"scenarios {args.action}: {args.engine} "
              f"x{args.replicas}, seed {args.seed}"
              + (" (fast)" if args.fast else ""),
    ))
    if args.out_dir:
        print(f"report JSON written to {args.out_dir}/")
    return 0


def _length_pairs(input_lens: list, output_lens: list) -> list:
    """Zip sweepable ``--input-len``/``--output-len`` values pairwise.

    Equal-length lists pair positionally; a length-one list broadcasts
    against the other.  Anything else is ambiguous and rejected.
    """
    if len(input_lens) == len(output_lens):
        return list(zip(input_lens, output_lens))
    if len(input_lens) == 1:
        return [(input_lens[0], ol) for ol in output_lens]
    if len(output_lens) == 1:
        return [(il, output_lens[0]) for il in input_lens]
    raise SystemExit(
        "--input-len and --output-len must have equal lengths "
        f"(or one value to broadcast); got {len(input_lens)} and "
        f"{len(output_lens)}"
    )


def cmd_bench_batch(args) -> int:
    """Benchmark continuous batching across lengths and batch sizes.

    Every ``max_batch > 1`` run is compared against the ``max_batch=1``
    run of the same engine and lengths (when 1 is among the batch
    sizes): the speedup gathered cohorts buy over batch-size-one
    service.
    """
    import json

    from repro.core.engine import SequenceRequest
    from repro.hardware.timeline import GPU
    from repro.sched import ContinuousBatchScheduler

    bundle = _build(args)
    platform = default_platform()
    calibration = _calibrate(bundle)
    pairs = _length_pairs(args.input_len, args.output_len)
    rows = []
    payload = {
        "model": args.model,
        "dataset": args.dataset,
        "requests": args.requests,
        "input_len": (args.input_len[0] if len(args.input_len) == 1
                      else list(args.input_len)),
        "output_len": (args.output_len[0] if len(args.output_len) == 1
                       else list(args.output_len)),
        "runs": [],
        "comparison": [],
    }
    for name in args.engines:
        for input_len, output_len in pairs:
            generator = SequenceGenerator(
                get_dataset(args.dataset), bundle.vocab, seed=args.seed + 8
            )
            requests = []
            for i in range(args.requests):
                sequence = generator.sample_sequence(
                    input_len, output_len, sample_idx=i
                )
                requests.append(SequenceRequest(
                    prompt_tokens=sequence.prompt_tokens,
                    max_new_tokens=output_len,
                    forced_tokens=sequence.continuation_tokens,
                    seq_id=i,
                ))
            throughput = {}
            for batch_size in args.batch_sizes:
                engine = build_engine(name, bundle, platform,
                                      expert_cache_ratio=args.ecr,
                                      calibration_probs=calibration)
                report = ContinuousBatchScheduler(
                    engine, max_batch=batch_size
                ).run(requests)
                throughput[batch_size] = report.throughput_tokens_per_s
                prefill = report.gather.phase_stats()["prefill"]
                rows.append([
                    name, f"{input_len}/{output_len}", batch_size,
                    report.makespan_s,
                    f"{100 * report.overlap_ratio:.1f}%",
                    report.throughput_tokens_per_s,
                    report.mean_ttft_s(),
                    f"{report.n_expert_kernels}/{report.n_expert_ops}",
                    f"{prefill['expert_kernels']}"
                    f"/{prefill['expert_ops']}",
                    f"{100 * report.occupancy(GPU):.0f}%",
                ])
                run = json.loads(report.to_json())
                run["input_len"] = input_len
                run["output_len"] = output_len
                payload["runs"].append(run)
            base = throughput.get(1)
            for batch_size, gath in throughput.items():
                if base is None or batch_size == 1:
                    continue
                payload["comparison"].append({
                    "engine": name,
                    "input_len": input_len,
                    "output_len": output_len,
                    "max_batch": batch_size,
                    "batch1_tokens_per_s": base,
                    "gathered_tokens_per_s": gath,
                    "gathered_speedup": gath / base if base > 0 else 0.0,
                })
    lengths_label = ", ".join(f"{il}/{ol}" for il, ol in pairs)
    print(format_table(
        ["engine", "in/out", "batch", "makespan (s)", "overlap",
         "tok/s", "mean TTFT (s)", "kernels/ops", "prefill k/ops",
         "GPU busy"],
        rows,
        title=f"bench-batch: {args.requests} requests, in/out "
              f"{lengths_label} ({args.dataset})",
    ))
    for entry in payload["comparison"]:
        print(
            f"{entry['engine']} @ {entry['input_len']}/"
            f"{entry['output_len']} batch {entry['max_batch']}: gathered "
            f"{entry['gathered_tokens_per_s']:.2f} tok/s vs batch 1 "
            f"{entry['batch1_tokens_per_s']:.2f} tok/s "
            f"({entry['gathered_speedup']:.2f}x)"
        )
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True))
        print(f"batch report written to {args.json}")
    return 0


def cmd_trace(args) -> int:
    """Analyze one generation's schedule; optionally dump a Chrome trace."""
    bundle = _build(args)
    platform = default_platform()
    calibration = _calibrate(bundle)
    engine = build_engine(args.engine, bundle, platform,
                          expert_cache_ratio=args.ecr,
                          calibration_probs=calibration)
    generator = SequenceGenerator(
        get_dataset(args.dataset), bundle.vocab, seed=args.seed + 7
    )
    sequence = generator.sample_sequence(args.input_len, args.output_len,
                                         sample_idx=0)
    result = engine.generate(sequence.prompt_tokens, args.output_len,
                             forced_tokens=sequence.continuation_tokens)
    print(f"engine: {args.engine}  "
          f"tok/s: {result.stats.tokens_per_second:.2f}  "
          f"tok/kJ: {result.stats.tokens_per_kilojoule:.2f}")
    print(summarize_schedule(result.timeline))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(timeline_to_chrome_trace(
                result.timeline, process_name=args.engine
            ))
        print(f"chrome trace written to {args.output}")
    return 0


def cmd_audit(args) -> int:
    """Differential + step-parity + resume-parity audit of every engine."""
    from repro.audit import (
        run_differential_audit,
        run_resume_parity_audit,
        run_step_parity_audit,
    )
    from repro.perf import TensorCache

    bundle = _build(args)
    platform = default_platform()
    calibration = _calibrate(bundle)
    cache = None
    if args.cache_mb > 0:
        cache = TensorCache(max_bytes=args.cache_mb * 1024 * 1024)
    report = run_differential_audit(
        bundle, platform,
        engine_names=args.engines,
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        prompt_len=args.input_len,
        max_new_tokens=args.output_len,
        expert_cache_ratio=args.ecr,
        calibration_probs=calibration,
        compute_cache=cache,
        cache_parity=cache is not None,
    )
    print(format_table(
        ["engine", "seed", "identical", "divergent", "mispredicted",
         "audit"],
        report.rows(),
        title=f"audit vs {report.oracle}: {args.model}, "
              f"{args.seeds} seed(s), in/out "
              f"{args.input_len}/{args.output_len}, ECR {args.ecr:.1%}",
    ))
    common = dict(
        engine_names=args.engines,
        seeds=(args.seed,),
        prompt_len=args.input_len,
        max_new_tokens=args.output_len,
        expert_cache_ratio=args.ecr,
        calibration_probs=calibration,
    )
    reports = (
        report,
        run_step_parity_audit(bundle, platform, compute_cache=cache,
                              **common),
        run_resume_parity_audit(bundle, platform, **common),
    )
    for each in reports:
        print(each.format())
    if cache is not None:
        stats = cache.stats()
        print(f"compute cache: {stats['hits']} hit(s) / "
              f"{stats['misses']} miss(es), {stats['entries']} entries, "
              f"{stats['current_bytes'] / 1e6:.1f} MB used, "
              f"{stats['evictions']} eviction(s); cache parity asserted "
              "bitwise per engine")
    if not all(each.ok for each in reports):
        return 1
    print(f"audit ok: {sum(len(each.comparisons) for each in reports)} "
          f"comparison(s) across {len(reports)} audits")
    return 0


def _stage_totals(stages: dict) -> tuple:
    """``(misses, lookups)`` summed over one pass's per-stage counters."""
    misses = sum(s["misses"] for s in stages.values())
    lookups = sum(s["hits"] + s["misses"] + s["memo_hits"]
                  for s in stages.values())
    return misses, lookups


def cmd_bench_compute(args) -> int:
    """Cold-vs-warm counted work of the content-addressed compute cache.

    Exits 1 when a warm pass recomputed anything (a warm stage missed or
    the cache evicted).
    """
    import json

    from repro.model.config import SimSpec
    from repro.perf import bench_compute, warm_pass_forwarded

    if args.model == "tiny":
        bundle = _build(args)
    else:
        # The committed BENCH_compute.json records a functional model
        # wider than the test-speed 64-wide default, so its cache byte
        # counts are those of compute-sized tensors.
        sim = SimSpec(d_model=256, n_heads=4, n_kv_heads=2, d_ff=512)
        bundle = _BUILDERS[args.model](seed=args.seed, n_blocks=args.blocks,
                                       sim=sim)
    platform = default_platform()
    calibration = _calibrate(bundle)
    payload = bench_compute(
        bundle, platform,
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        prompt_len=args.input_len,
        max_new_tokens=args.output_len,
        expert_cache_ratio=args.ecr,
        calibration_probs=calibration,
        sweep_len=args.sweep_len,
    )
    sections = (("differential_audit", "audit"), ("ecr_sweep", "sweep"))
    rows = []
    for key, label in sections:
        section = payload[key]
        cold_misses, cold_lookups = _stage_totals(section["stages_cold"])
        warm_misses, warm_lookups = _stage_totals(section["stages_warm"])
        rows.append([
            label, f"{cold_misses}/{cold_lookups}",
            f"{warm_misses}/{warm_lookups}",
            section["cache"]["entries"], section["cache"]["evictions"],
        ])
    print(format_table(
        ["workload", "cold misses/lookups", "warm misses/lookups",
         "entries", "evictions"],
        rows,
        title=f"bench-compute: {args.model}, audit {args.seeds} seed(s) "
              f"in/out {args.input_len}/{args.output_len}, sweep in/out "
              f"{args.sweep_len}/{args.sweep_len}",
    ))
    for key, label in sections:
        detail = "  ".join(
            f"{stage}={100 * s['hit_rate']:.0f}%"
            for stage, s in payload[key]["stages_warm"].items()
            if s["hits"] + s["misses"] + s["memo_hits"]
        )
        print(f"warm hit rates ({label}): {detail}")
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True))
        print(f"compute benchmark written to {args.json}")
    failed = [label for key, label in sections
              if warm_pass_forwarded(payload[key])]
    if failed:
        print("FAIL: the warm pass recomputed work on "
              f"{', '.join(failed)} (warm stage misses or evictions)")
        return 1
    print("warm passes forwarded nothing: 0 warm misses, 0 evictions")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DAOP reproduction command-line tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="model + platform summary")
    _add_common(p_info)
    p_info.set_defaults(func=cmd_info)

    p_speed = sub.add_parser("speed", help="engine throughput comparison")
    _add_common(p_speed)
    p_speed.add_argument("--engines", nargs="+", default=DEFAULT_ENGINES,
                         choices=ENGINE_NAMES)
    p_speed.add_argument("--dataset", default="sharegpt")
    p_speed.add_argument("--input-len", type=int, default=64)
    p_speed.add_argument("--output-len", type=int, default=64)
    p_speed.add_argument("--sequences", type=int, default=1)
    p_speed.set_defaults(func=cmd_speed)

    p_acc = sub.add_parser("accuracy", help="task accuracy vs the oracle")
    _add_common(p_acc)
    p_acc.add_argument("--engines", nargs="+", default=("daop",),
                       choices=ENGINE_NAMES)
    p_acc.add_argument("--task", default="triviaqa")
    p_acc.add_argument("--samples", type=int, default=8)
    p_acc.set_defaults(func=cmd_accuracy)

    p_obs = sub.add_parser("observe", help="routing statistics")
    _add_common(p_obs)
    p_obs.add_argument("--dataset", default="c4")
    p_obs.add_argument("--sequences", type=int, default=3)
    p_obs.set_defaults(func=cmd_observe)

    p_serve = sub.add_parser("serve", help="serving simulation")
    _add_common(p_serve)
    p_serve.add_argument("--engines", nargs="+", default=("fiddler", "daop"),
                         choices=ENGINE_NAMES)
    p_serve.add_argument("--dataset", default="sharegpt")
    p_serve.add_argument("--rate", type=float, default=0.05,
                         help="mean request arrival rate per second")
    p_serve.add_argument("--requests", type=int, default=4)
    p_serve.add_argument("--input-len", type=int, default=48)
    p_serve.add_argument("--output-len", type=int, default=48)
    p_serve.add_argument("--concurrency", type=int, default=1,
                         help="concurrent sequences per engine")
    p_serve.set_defaults(func=cmd_serve)

    p_watch = sub.add_parser(
        "watch", help="live event stream from a serving simulation"
    )
    _add_common(p_watch)
    p_watch.add_argument("--engine", default="daop", choices=ENGINE_NAMES)
    p_watch.add_argument("--dataset", default="sharegpt")
    p_watch.add_argument("--rate", type=float, default=0.05,
                         help="mean request arrival rate per second")
    p_watch.add_argument("--requests", type=int, default=3)
    p_watch.add_argument("--input-len", type=int, default=24)
    p_watch.add_argument("--output-len", type=int, default=12)
    p_watch.add_argument("--concurrency", type=int, default=2,
                         help="concurrent sequences per engine")
    p_watch.add_argument("--kinds", nargs="+", default=None,
                         help="only stream these event kinds "
                              "(default: all)")
    p_watch.add_argument("--jsonl", default=None,
                         help="also append every event to this JSONL log")
    p_watch.set_defaults(func=cmd_watch)

    p_cluster = sub.add_parser(
        "serve-cluster", help="multi-replica cluster serving simulation"
    )
    _add_common(p_cluster)
    p_cluster.add_argument("--engine", default="daop", choices=ENGINE_NAMES)
    p_cluster.add_argument("--replicas", type=int, default=2)
    p_cluster.add_argument("--policies", nargs="+",
                           default=("round-robin", "cache-affinity"),
                           choices=POLICY_NAMES)
    p_cluster.add_argument("--arrivals", choices=("poisson", "bursty"),
                           default="poisson")
    p_cluster.add_argument("--dataset", default="sharegpt")
    p_cluster.add_argument("--rate", type=float, default=0.05,
                           help="mean request arrival rate per second")
    p_cluster.add_argument("--requests", type=int, default=8)
    p_cluster.add_argument("--clusters", type=int, default=3,
                           help="similarity clusters in the workload "
                                "(0 = every request unique)")
    p_cluster.add_argument("--input-len", type=int, default=32)
    p_cluster.add_argument("--output-len", type=int, default=16)
    p_cluster.add_argument("--max-queue", type=int, default=8,
                           help="waiting-request bound per replica")
    p_cluster.add_argument("--ttft-deadline", type=float, default=None,
                           help="expire queued requests past this TTFT "
                                "deadline (seconds)")
    p_cluster.add_argument("--slo-ttft", type=float, default=30.0,
                           help="TTFT SLO target in seconds")
    p_cluster.add_argument("--slo-tpot", type=float, default=1.0,
                           help="TPOT SLO target in seconds")
    p_cluster.add_argument("--json", default=None,
                           help="write the last policy's ClusterReport "
                                "JSON here")
    p_cluster.add_argument("--concurrency", type=int, default=1,
                           help="concurrent sequences per replica")
    p_cluster.set_defaults(func=cmd_serve_cluster)

    p_scen = sub.add_parser(
        "scenarios", help="scenario library: list/run/replay/compare"
    )
    _add_common(p_scen)
    p_scen.add_argument("action",
                        choices=("list", "run", "replay", "compare"),
                        help="list the registry, run scenarios, replay a "
                             "recorded workload, or diff two report JSONs")
    p_scen.add_argument("names", nargs="*",
                        help="scenario names (run/replay) or two report "
                             "paths (compare); run defaults to all")
    p_scen.add_argument("--all", action="store_true",
                        help="run every registered scenario")
    p_scen.add_argument("--engine", default="daop", choices=ENGINE_NAMES)
    p_scen.add_argument("--replicas", type=int, default=1,
                        help="replica count; >1 uses the cluster "
                             "simulator")
    p_scen.add_argument("--policy", default="round-robin",
                        choices=POLICY_NAMES,
                        help="routing policy when --replicas > 1")
    p_scen.add_argument("--concurrency", type=int, default=1,
                        help="concurrent sequences per engine")
    p_scen.add_argument("--fast", action="store_true",
                        help="smoke mode: cap request counts and token "
                             "lengths (CI)")
    p_scen.add_argument("--out-dir", default=None,
                        help="write one ScenarioReport JSON per scenario "
                             "here")
    p_scen.add_argument("--record", default=None,
                        help="record each scenario's materialized "
                             "workload (v2 JSON) into this directory")
    p_scen.add_argument("--workload", default=None,
                        help="recorded workload file to replay "
                             "(replay action)")
    p_scen.add_argument("--pause-after", type=int, default=None,
                        metavar="TICKS",
                        help="pause the (single) scenario after this many "
                             "backend ticks and checkpoint it")
    p_scen.add_argument("--checkpoint-to", default=None, metavar="PATH",
                        help="where --pause-after writes the checkpoint")
    p_scen.add_argument("--resume-from", default=None, metavar="PATH",
                        help="resume the (single) scenario from a "
                             "checkpoint file instead of starting fresh")
    p_scen.set_defaults(func=cmd_scenarios)

    p_batch = sub.add_parser(
        "bench-batch", help="continuous-batching benchmark"
    )
    _add_common(p_batch)
    p_batch.add_argument("--engines", nargs="+",
                         default=("fiddler", "daop"),
                         choices=ENGINE_NAMES)
    p_batch.add_argument("--dataset", default="sharegpt")
    p_batch.add_argument("--requests", type=_positive_int, default=4)
    p_batch.add_argument("--batch-sizes", nargs="+", type=_positive_int,
                         default=(1, 2, 4),
                         help="max_batch values to sweep")
    p_batch.add_argument("--input-len", type=_positive_int, nargs="+",
                         default=[32],
                         help="prompt lengths to sweep (pairs with "
                              "--output-len; one value broadcasts)")
    p_batch.add_argument("--output-len", type=_positive_int, nargs="+",
                         default=[16],
                         help="decode lengths to sweep (pairs with "
                              "--input-len; one value broadcasts)")
    p_batch.add_argument("--json", default=None,
                         help="write the full batch report JSON here")
    p_batch.set_defaults(func=cmd_bench_batch)

    p_trace = sub.add_parser("trace", help="schedule analysis")
    _add_common(p_trace)
    p_trace.add_argument("--engine", default="daop", choices=ENGINE_NAMES)
    p_trace.add_argument("--dataset", default="sharegpt")
    p_trace.add_argument("--input-len", type=int, default=48)
    p_trace.add_argument("--output-len", type=int, default=32)
    p_trace.add_argument("--output", default=None,
                         help="write a Chrome trace JSON here")
    p_trace.set_defaults(func=cmd_trace)

    p_audit = sub.add_parser(
        "audit", help="cross-engine differential + invariant audit"
    )
    _add_common(p_audit)
    p_audit.add_argument("--engines", nargs="+", default=None,
                         choices=ENGINE_NAMES,
                         help="engines to audit (default: all but the "
                              "oracle)")
    p_audit.add_argument("--seeds", type=_positive_int, default=3,
                         help="number of seeded prompts in the matrix")
    p_audit.add_argument("--input-len", type=_positive_int, default=16)
    p_audit.add_argument("--output-len", type=_positive_int, default=12)
    p_audit.add_argument("--cache-mb", type=int, default=256,
                         help="shared compute-cache budget in MB; the "
                              "audit then also asserts bitwise cache "
                              "parity per engine (0 disables)")
    p_audit.set_defaults(func=cmd_audit)

    p_bcompute = sub.add_parser(
        "bench-compute",
        help="cold-vs-warm counted work of the forward-compute cache",
    )
    _add_common(p_bcompute)
    p_bcompute.add_argument("--seeds", type=_positive_int, default=3,
                            help="seeded prompts in the audit workload")
    p_bcompute.add_argument("--input-len", type=_positive_int, default=16)
    p_bcompute.add_argument("--output-len", type=_positive_int, default=12)
    p_bcompute.add_argument("--sweep-len", type=_positive_int, default=32,
                            help="in/out length of the fig10-style "
                                 "ECR-sweep workload")
    p_bcompute.add_argument("--json", default=None,
                            help="write BENCH_compute.json here")
    p_bcompute.set_defaults(func=cmd_bench_compute)

    # The lint runner parses its own arguments: main() forwards them.
    sub.add_parser("lint", add_help=False,
                   help="daoplint: AST-based invariant checker "
                        "(options: repro lint --help)")

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.lint.runner import main as lint_main

        return lint_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
