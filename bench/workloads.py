"""The benchmark's workloads: inputs from a seed, one rep, output checks.

Every workload serves the same model, the Mixtral-8x7B analogue at 16
functional blocks, calibrated exactly as the CLI calibrates it.  A
workload materializes its inputs from ``--seed`` alone, so the program
under test only ever receives the generated requests.

Each rep builds fresh engines (and the compute cache, for the sweep),
so every rep does identical work and must reproduce the same simulated
outputs bit for bit; :attr:`RepOutput.fingerprint` is what
:mod:`bench.run` compares across reps.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.audit.invariants import (
    audit_generation,
    audit_result,
    expects_prefill_only_uploads,
)
from repro.cluster import AdmissionController, ClusterSimulator, build_policy
from repro.core import build_engine
from repro.core.batching import GatherStats
from repro.core.calibration import calibrate_activation_probs
from repro.core.engine import SequenceRequest
from repro.hardware.presets import default_platform
from repro.model.zoo import build_mixtral_8x7b_sim
from repro.perf import TensorCache
from repro.scenarios import ScenarioRunner, get_scenario
from repro.sched import ContinuousBatchScheduler
from repro.workloads import SequenceGenerator, get_dataset

from bench.metrics import latency_metrics

#: Expert cache ratio of every workload but the ECR sweep (the CLI's).
ECR = 0.469

#: Seed of every workload's shape: prompt and output lengths, arrival
#: times and tenant mix.  ``--seed`` draws only the token content, so a
#: workload keeps its load (``cluster-slo`` stays at the knee) and its
#: simulated metrics vary across seeds only as much as content moves them.
SHAPE_SEED = 0


@dataclass
class Context:
    """What set-up builds: the model bundle, platform and calibration."""

    bundle: object
    platform: object
    calibration: np.ndarray

    def engine(self, name: str = "daop", ecr: float = ECR):
        """A freshly constructed engine."""
        return build_engine(name, self.bundle, self.platform,
                            expert_cache_ratio=ecr,
                            calibration_probs=self.calibration)


def build_context(smoke: bool) -> Context:
    """Build the model and calibrate it (the timed part of set-up)."""
    bundle = build_mixtral_8x7b_sim(seed=0, n_blocks=4 if smoke else 16)
    # Same calibration as the CLI's ``_calibrate``.
    calibration = calibrate_activation_probs(
        bundle, n_sequences=4, prompt_len=24, decode_len=24
    )
    return Context(bundle, default_platform(), calibration)


class Laps:
    """Host seconds of each unit of work in one rep.

    A unit is one generation, one scheduler tick or one cluster event;
    each lap runs from the end of the previous one, so the laps cover
    all of the program's work in the rep and none of the benchmark's
    bookkeeping after it.
    """

    def __init__(self) -> None:
        self.times: list = []
        self._last = time.perf_counter()

    def lap(self) -> None:
        now = time.perf_counter()
        self.times.append(now - self._last)
        self._last = now


@dataclass
class RepOutput:
    """Everything one rep produced.

    Attributes:
        unit_s: host seconds of each unit of work (:class:`Laps`).
        n_tokens: simulated tokens generated (host throughput numerator).
        sim: simulated end-to-end metrics of the rep.
        fingerprint: digest of every simulated output of the rep.
        lane_span_s: simulated time the hardware lanes were available
            (occupancy denominator).
        outputs: workload-specific material for the output checks.
        cache: the compute cache the rep used, if any.
        gather: the rep's gathered-kernel accounting, if any.
        cluster: the cluster report, if any.
    """

    unit_s: list
    n_tokens: int
    sim: dict
    fingerprint: str
    lane_span_s: float
    outputs: object = None
    cache: TensorCache | None = None
    gather: object = None
    cluster: object = None


@dataclass
class Verdict:
    """Outcome of the output checks of one rep."""

    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def failed_frac(rep: RepOutput, verdict: Verdict) -> float:
    """(shed + expired + failed output checks) / offered."""
    refused = len(rep.cluster.rejected) if rep.cluster is not None else 0
    return (refused + verdict.failed) / verdict.attempted


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def _record_latencies(records) -> dict:
    return latency_metrics([r.ttft_s for r in records],
                           [r.tpot_s for r in records])


class Workload:
    """One benchmark workload.

    Subclasses set :attr:`name` and :attr:`loop` and implement
    :meth:`build_inputs`, :meth:`rep` and :meth:`verify`; ``README.md``
    and ``BENCHMARK.json`` record why each workload was chosen.
    """

    name = ""
    loop = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.inputs: list = []
        #: Reference outputs, computed once by the first :meth:`verify`.
        self.oracle = None

    def build_inputs(self, ctx: Context) -> None:
        """Materialize :attr:`inputs` from the seed."""
        raise NotImplementedError

    def construct(self, ctx: Context) -> object:
        """Build the engines or simulator a rep runs on.

        Set-up times one call; every rep then constructs its own.
        """
        return ctx.engine()

    def warmup_inputs(self) -> list:
        """The untimed warm-up's inputs: the first quarter."""
        return self.inputs[:max(1, len(self.inputs) // 4)]

    def rep(self, ctx: Context, inputs: list) -> RepOutput:
        raise NotImplementedError

    def verify(self, ctx: Context, rep: RepOutput) -> Verdict:
        raise NotImplementedError


class PaperB1Sweep(Workload):
    """Batch-1 engine comparison across expert cache ratios (Fig. 10)."""

    name = "paper-b1-sweep"
    loop = "closed, one client, batch 1"

    ENGINES = ("moe-ondemand", "deepspeed-mii", "mixtral-offloading",
               "moe-infinity", "pregated-moe", "fiddler", "daop")

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.ecrs = (0.25, 0.5) if smoke else (0.25, 0.375, 0.5, 0.625)
        self.length = 4 if smoke else 32

    def build_inputs(self, ctx: Context) -> None:
        n_sequences = 1 if self.smoke else 2
        generator = SequenceGenerator(get_dataset("gsm8k"),
                                      ctx.bundle.vocab, seed=self.seed)
        self.sequences = [
            generator.sample_sequence(self.length, self.length,
                                      sample_idx=i)
            for i in range(n_sequences)
        ]
        self.inputs = list(self.ecrs)

    def construct(self, ctx: Context) -> object:
        return [ctx.engine(name, ecr)
                for ecr in self.ecrs for name in self.ENGINES]

    def rep(self, ctx: Context, inputs: list) -> RepOutput:
        # ECR changes placement, never values: one compute cache shared
        # across the sweep lets later points reuse the first's forwards.
        laps = Laps()
        cache = TensorCache(max_bytes=1 << 30)
        model = ctx.bundle.model
        model.attach_compute_cache(cache)
        runs = []
        try:
            for ecr in inputs:
                for name in self.ENGINES:
                    engine = ctx.engine(name, ecr)
                    for i, seq in enumerate(self.sequences):
                        result = engine.generate(
                            seq.prompt_tokens, self.length,
                            forced_tokens=seq.continuation_tokens,
                        )
                        runs.append((name, ecr, i, engine, result))
                        laps.lap()
        finally:
            model.detach_compute_cache()
        daop = [r for name, _, _, _, r in runs if name == "daop"]
        stats = [r.stats for r in daop]
        sim = {
            "sim_tok_per_s": (sum(s.n_generated for s in stats)
                              / sum(s.total_time_s for s in stats)),
            **latency_metrics(
                [s.prefill_time_s for s in stats],
                [s.decode_time_s / (s.n_generated - 1) for s in stats],
            ),
            "sim_tok_per_kj": (sum(s.n_generated for s in stats)
                               / sum(s.energy.total_kj for s in stats)),
        }
        fingerprint = _digest([
            [name, ecr, i, r.tokens.tolist(), r.stats.to_state_dict()]
            for name, ecr, i, _, r in runs
        ])
        return RepOutput(
            unit_s=laps.times,
            n_tokens=sum(r.stats.n_generated for *_, r in runs),
            sim=sim, fingerprint=fingerprint,
            lane_span_s=sum(s.total_time_s for s in stats),
            outputs=runs, cache=cache,
        )

    def verify(self, ctx: Context, rep: RepOutput) -> Verdict:
        if self.oracle is None:
            official = ctx.engine("official", 1.0)
            self.oracle = [
                official.generate(seq.prompt_tokens, self.length,
                                  forced_tokens=seq.continuation_tokens)
                .tokens
                for seq in self.sequences
            ]
        verdict = Verdict(attempted=len(rep.outputs))
        matched = total = 0
        for name, ecr, i, engine, result in rep.outputs:
            oracle = self.oracle[i]
            where = f"{name} @ ECR {ecr} sequence {i}"
            if name == "daop":
                total += oracle.size
                matched += int(np.sum(result.tokens == oracle))
            audit = audit_generation(engine, result)
            if not audit.ok:
                verdict.fail(f"{where}: {audit.format()}")
            elif not getattr(engine, "enable_precalc", False) \
                    and not np.array_equal(result.tokens, oracle):
                verdict.fail(f"{where}: tokens differ from official's")
        verdict.metrics["token_match_rate"] = matched / total
        return verdict


class BatchWorkload(Workload):
    """Sixteen requests at t=0 through the gathered batch scheduler."""

    dataset = ""

    def lengths(self, rng) -> tuple:
        """``(prompt_len, output_len)`` of the next request."""
        raise NotImplementedError

    def build_inputs(self, ctx: Context) -> None:
        generator = SequenceGenerator(get_dataset(self.dataset),
                                      ctx.bundle.vocab, seed=self.seed)
        rng = np.random.default_rng(SHAPE_SEED)
        self.inputs = []
        for i in range(4 if self.smoke else 16):
            prompt_len, output_len = self.lengths(rng)
            seq = generator.sample_sequence(prompt_len, output_len,
                                            sample_idx=i)
            self.inputs.append(SequenceRequest(
                prompt_tokens=seq.prompt_tokens,
                max_new_tokens=output_len,
                forced_tokens=seq.continuation_tokens,
                seq_id=i,
            ))

    def rep(self, ctx: Context, inputs: list) -> RepOutput:
        laps = Laps()
        scheduler = ContinuousBatchScheduler(self.construct(ctx), max_batch=4)
        session = scheduler.begin(inputs)
        while scheduler.tick(session):
            laps.lap()
        report = scheduler.finish(session)
        laps.lap()
        sim = {"sim_tok_per_s": report.throughput_tokens_per_s,
               **_record_latencies(report.records)}
        fingerprint = _digest([
            report.to_json(),
            [[r.seq_id, r.result.tokens.tolist()] for r in report.records],
        ])
        return RepOutput(
            unit_s=laps.times, n_tokens=report.total_generated, sim=sim,
            fingerprint=fingerprint, lane_span_s=report.makespan_s,
            outputs=report, gather=report.gather,
        )

    def verify(self, ctx: Context, rep: RepOutput) -> Verdict:
        if self.oracle is None:
            self.oracle = {
                request.seq_id: ctx.engine().generate(
                    request.prompt_tokens, request.max_new_tokens,
                    forced_tokens=request.forced_tokens,
                ).tokens
                for request in self.inputs
            }
        engine = ctx.engine()
        verdict = Verdict(attempted=len(self.inputs))
        records = {r.seq_id: r for r in rep.outputs.records}
        for seq_id, solo in self.oracle.items():
            record = records.get(seq_id)
            if record is None:
                verdict.fail(f"sequence {seq_id} was not served")
                continue
            audit = audit_result(
                record.result, engine_name=engine.name,
                initial_placement=engine.initial_placement,
                platform=engine.platform,
                prefill_only_uploads=expects_prefill_only_uploads(engine),
            )
            if not audit.ok:
                verdict.fail(f"sequence {seq_id}: {audit.format()}")
            elif not np.array_equal(record.result.tokens, solo):
                verdict.fail(f"sequence {seq_id}: batched tokens differ "
                             "from a solo run")
        return verdict


class BatchDecode(BatchWorkload):
    """Decode-heavy batch: gathered decode steps do most of the work."""

    name = "batch-decode"
    loop = "closed, offline batch of 16 at t=0"
    dataset = "sharegpt"

    def lengths(self, rng) -> tuple:
        return (8, 6) if self.smoke else (32, 48)


class BatchPrefill(BatchWorkload):
    """Prefill-heavy batch: bucketed, gathered long-prompt prefills."""

    name = "batch-prefill"
    loop = "closed, offline batch of 16 at t=0"
    dataset = "c4"

    def lengths(self, rng) -> tuple:
        if self.smoke:
            return int(rng.integers(16, 41)), 2
        # Prompts span buckets 128 and 256.
        return int(rng.integers(96, 257)), 8


class ClusterSLO(Workload):
    """An open-loop scenario through a two-replica fleet, at the knee."""

    name = "cluster-slo"
    loop = "open, 1.5 req/s on the simulated clock, 100 requests"

    def build_inputs(self, ctx: Context) -> None:
        spec = get_scenario("mixed-interactive-batch")
        self.spec = replace(spec, arrival=replace(
            spec.arrival, n_requests=100, rate_per_s=1.5,
        ))
        shape = ScenarioRunner(self.spec, ctx.bundle.vocab, seed=SHAPE_SEED,
                               fast=self.smoke, fast_requests=8)
        generators = {}
        self.inputs = []
        for request in shape.build_requests():
            if request.dataset not in generators:
                generators[request.dataset] = SequenceGenerator(
                    get_dataset(request.dataset), ctx.bundle.vocab,
                    seed=self.seed,
                )
            seq = generators[request.dataset].sample_sequence(
                request.prompt_len, request.output_len,
                sample_idx=request.sample_idx,
            )
            self.inputs.append(replace(
                request, prompt_tokens=seq.prompt_tokens,
                forced_tokens=seq.continuation_tokens,
            ))

    def construct(self, ctx: Context) -> object:
        return ClusterSimulator(
            [ctx.engine(), ctx.engine()], None,
            build_policy("cache-affinity"),
            admission=AdmissionController(max_queue_len=16,
                                          ttft_deadline_s=240.0),
            concurrency=4,
        )

    def rep(self, ctx: Context, inputs: list) -> RepOutput:
        laps = Laps()
        simulator = self.construct(ctx)
        runner = ScenarioRunner(self.spec, ctx.bundle.vocab, seed=self.seed)
        session = runner.begin(simulator, requests=inputs)
        while runner.tick(simulator, session):
            laps.lap()
        report = runner.finish(simulator, session)
        laps.lap()
        cluster = session.backend.report
        # A refused request misses every latency limit: it enters the
        # latency samples as inf, so percentiles count it.
        refused = [math.inf] * len(report.rejected)
        summary = report.to_dict()["summary"]
        good = sum(r.n_generated for r in report.requests if r.slo_met)
        sim = {
            "sim_tok_per_s": summary["throughput_tokens_per_s"],
            **latency_metrics(
                [r.ttft_s for r in report.requests] + refused,
                [r.tpot_s for r in report.requests] + refused,
            ),
            "sim_goodput_tok_per_s": good / summary["makespan_s"],
            "slo_attainment": summary["slo_attainment"],
        }
        gather = GatherStats()
        for stats in cluster.replica_gather:
            gather.merge(stats)
        return RepOutput(
            unit_s=laps.times,
            n_tokens=sum(r.n_generated for r in report.requests),
            sim=sim,
            fingerprint=_digest([report.content_digest(),
                                 cluster.to_json()]),
            lane_span_s=cluster.makespan_s * cluster.n_replicas,
            outputs=(inputs, report), gather=gather, cluster=cluster,
        )

    def verify(self, ctx: Context, rep: RepOutput) -> Verdict:
        specs, report = rep.outputs
        by_id = {spec.request_id: spec for spec in specs}
        verdict = Verdict(attempted=len(specs))
        if report.n_served + len(report.rejected) != len(specs):
            verdict.fail(f"served {report.n_served} + refused "
                         f"{len(report.rejected)} != offered {len(specs)}")
        for record in report.requests:
            spec = by_id[record.request_id]
            if record.n_generated != spec.output_len:
                verdict.fail(f"request {record.request_id}: generated "
                             f"{record.n_generated} of {spec.output_len}")
            elif not 0.0 <= record.ttft_s <= record.latency_s:
                verdict.fail(f"request {record.request_id}: TTFT "
                             f"{record.ttft_s} outside [0, latency]")
        return verdict


WORKLOADS = {cls.name: cls for cls in
             (PaperB1Sweep, BatchDecode, BatchPrefill, ClusterSLO)}
