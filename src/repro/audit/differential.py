"""Cross-engine differential audit and the step-parity audit.

The central correctness invariant of this reproduction (and of the
compute-placement-invariance assumption Fiddler and Pre-gated MoE share
with DAOP) is that expert *placement* may change simulated time and
energy but never values: every non-predictive engine must emit a
byte-identical token stream to the all-on-GPU ``official`` oracle, and
DAOP's prediction path may diverge only through the approximations its
trace marks ``predicted=True`` (predicted expert sets, stale CPU inputs,
graceful degradation).

:func:`run_differential_audit` runs every registered engine against the
oracle over a seeded prompt matrix and asserts exactly that, with
per-block divergence accounting (how many decode events each block
predicted and mispredicted) and a full invariant audit
(:mod:`repro.audit.invariants`) of every generation produced.

:func:`run_step_parity_audit` guards the execution paths that must be
interchangeable with the monolithic ``generate()``: for every engine,
one sequence driven through the explicit ``start``/``step``/``finish``
API (``start/step/finish``) and one driven through the batch-1
:class:`~repro.sched.scheduler.ContinuousBatchScheduler`
(``scheduler@1``) must reproduce it exactly -- values, timing and the
per-op timeline -- while four sequences gathered in one batch-4 session,
with equal (``gathered@4``) and with mixed (``gathered-mixed@4``)
prompt lengths, must each reproduce their solo run's values.  Every
result those paths produce also passes the full invariant audit.

Both audits accept a shared content-addressed ``compute_cache``
(``repro.perf.TensorCache``): identical forwards are then computed once
across the whole engine matrix.  ``cache_parity=True`` additionally runs
every generation a second time with the cache detached and asserts the
two runs are interchangeable, which is the memoization layer's own
correctness contract.

Both audits decide parity with :mod:`repro.audit.parity` and report
through its :class:`~repro.audit.parity.ParityReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.audit.invariants import audit_generation
from repro.audit.parity import (
    Comparison,
    ParityReport,
    result_differences,
    value_differences,
)
from repro.core import ENGINE_NAMES, build_engine
from repro.core.engine import GenerationResult, SequenceRequest
from repro.hardware.platform import Platform
from repro.model.zoo import ModelBundle
from repro.sched.scheduler import ContinuousBatchScheduler
from repro.trace.recorder import DECODE
from repro.workloads import C4, SequenceGenerator

#: The engine whose output defines correctness (ECR 100 %, exact math).
ORACLE_ENGINE = "official"

#: Default seeds for the prompt matrix (acceptance: >= 3).
DEFAULT_SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class BlockDivergence:
    """Per-block accounting of decode-phase prediction divergence."""

    block: int
    decode_events: int
    predicted_events: int
    mispredicted_events: int

    @property
    def prediction_accuracy(self) -> float:
        """Fraction of predicted events whose executed set matched."""
        if self.predicted_events == 0:
            return 1.0
        return 1.0 - self.mispredicted_events / self.predicted_events


@dataclass
class EngineComparison(Comparison):
    """One engine vs the oracle on one seeded prompt.

    On top of the shared :class:`~repro.audit.parity.Comparison` it
    carries the oracle-specific token divergence and per-block
    accounting the CLI table shows.
    """

    engine: str = ""
    seed: int = 0
    n_tokens: int = 0
    n_divergent: int = 0
    first_divergence: int | None = None
    predictive: bool = False
    block_divergence: list = field(default_factory=list)

    @property
    def identical(self) -> bool:
        """Whether the token stream matched the oracle exactly."""
        return self.n_divergent == 0


@dataclass
class DifferentialReport(ParityReport):
    """Aggregated outcome of a differential audit run.

    ``comparisons`` holds one :class:`EngineComparison` per engine and
    seed plus, per seed, one plain comparison for the oracle's own run
    (its invariant audit and cache parity).
    """

    oracle: str = ORACLE_ENGINE

    @property
    def engine_comparisons(self) -> list:
        """The engine-vs-oracle comparisons, without the oracle's own."""
        return [c for c in self.comparisons
                if isinstance(c, EngineComparison)]

    def rows(self) -> list:
        """Tabular summary: one row per (engine, seed) comparison."""
        rows = []
        for c in self.engine_comparisons:
            mispredicted = sum(b.mispredicted_events
                               for b in c.block_divergence)
            rows.append([
                c.engine, c.seed,
                "yes" if c.identical else f"@{c.first_divergence}",
                c.n_divergent, mispredicted,
                "ok" if c.ok else "FAIL",
            ])
        return rows


def compare_token_streams(oracle_tokens: np.ndarray,
                          engine_tokens: np.ndarray):
    """Token-stream difference summary.

    Returns:
        ``(n_divergent, first_divergence)`` where ``first_divergence`` is
        the index of the first differing position (``None`` when the
        streams are identical); a length mismatch counts every position
        past the common prefix as divergent.
    """
    oracle_tokens = np.asarray(oracle_tokens)
    engine_tokens = np.asarray(engine_tokens)
    n = min(oracle_tokens.size, engine_tokens.size)
    diff = oracle_tokens[:n] != engine_tokens[:n]
    tail = max(oracle_tokens.size, engine_tokens.size) - n
    n_divergent = int(np.count_nonzero(diff)) + tail
    if n_divergent == 0:
        return 0, None
    if diff.any():
        return n_divergent, int(np.argmax(diff))
    return n_divergent, n


def block_divergence_accounting(result: GenerationResult) -> list:
    """Per-block decode divergence summary of one generation's trace."""
    per_block: dict = {}
    for event in result.trace.events:
        if event.phase != DECODE:
            continue
        stats = per_block.setdefault(event.block, [0, 0, 0])
        stats[0] += 1
        if event.predicted:
            stats[1] += 1
            executed = (event.executed_experts
                        if event.executed_experts is not None
                        else event.experts)
            if set(executed) != set(event.experts):
                stats[2] += 1
    return [
        BlockDivergence(block=block, decode_events=stats[0],
                        predicted_events=stats[1],
                        mispredicted_events=stats[2])
        for block, stats in sorted(per_block.items())
    ]


def _generate_cache_off(model, compute_cache, engine, prompt,
                        max_new_tokens) -> GenerationResult:
    """Run one generation with the compute cache temporarily detached."""
    model.detach_compute_cache()
    try:
        return engine.generate(prompt, max_new_tokens)
    finally:
        model.attach_compute_cache(compute_cache)


def _is_predictive(engine) -> bool:
    """Whether the engine's *math* may deviate from the true gate."""
    return bool(getattr(engine, "enable_precalc", False))


def _compare(engine, name: str, seed: int, oracle: GenerationResult,
             result: GenerationResult,
             audit_invariants: bool) -> EngineComparison:
    n_divergent, first = compare_token_streams(oracle.tokens, result.tokens)
    comparison = EngineComparison(
        label=f"{name}/seed{seed}",
        engine=name, seed=seed, n_tokens=int(result.tokens.size),
        n_divergent=n_divergent, first_divergence=first,
        predictive=_is_predictive(engine),
        block_divergence=block_divergence_accounting(result),
    )
    if result.tokens.size != oracle.tokens.size:
        comparison.problems.append(
            f"generated {result.tokens.size} tokens but the oracle "
            f"generated {oracle.tokens.size}"
        )
    has_predicted = any(e.predicted for e in result.trace.events)
    if not comparison.predictive:
        if n_divergent:
            comparison.problems.append(
                f"non-predictive engine diverged from the oracle at "
                f"token {first} ({n_divergent} position(s)); placement "
                "must never change values"
            )
        if has_predicted:
            comparison.problems.append(
                "non-predictive engine marked trace events predicted=True"
            )
    else:
        if result.tokens.size and oracle.tokens.size \
                and result.tokens[0] != oracle.tokens[0]:
            comparison.problems.append(
                "first token diverged from the oracle; DAOP prefill is "
                "exact so divergence may only start in decode"
            )
        if n_divergent and not has_predicted:
            comparison.problems.append(
                f"diverged from the oracle at token {first} without a "
                "single predicted=True trace event to attribute it to"
            )
    if audit_invariants:
        comparison.audits.append(
            ("invariants", audit_generation(engine, result))
        )
    return comparison


def run_differential_audit(
    bundle: ModelBundle,
    platform: Platform,
    engine_names=None,
    seeds=DEFAULT_SEEDS,
    prompt_len: int = 16,
    max_new_tokens: int = 12,
    expert_cache_ratio: float = 0.5,
    calibration_probs: np.ndarray | None = None,
    dataset=C4,
    audit_invariants: bool = True,
    compute_cache=None,
    cache_parity: bool = False,
) -> DifferentialReport:
    """Run every engine against the oracle over a seeded prompt matrix.

    Args:
        bundle: the model to drive every engine with.
        platform: simulated hardware platform.
        engine_names: engines to audit (default: every registered
            engine except the oracle itself).
        seeds: one prompt is drawn per seed (>= 3 for the acceptance
            criterion).
        prompt_len: prompt length in tokens.
        max_new_tokens: decode steps per generation.
        expert_cache_ratio: ECR for the cached engines.
        calibration_probs: calibrated activation probabilities (optional).
        dataset: workload dataset the prompt matrix is drawn from.
        audit_invariants: also run the full invariant audit on every
            generation (including the oracle's).
        compute_cache: optional shared ``repro.perf.TensorCache``
            attached to the model for the whole run, so identical
            forwards are computed once across engines and seeds.
        cache_parity: with a ``compute_cache``, additionally re-run
            every generation cache-off and assert the cache-on run is
            interchangeable with it
            (:func:`~repro.audit.parity.result_differences`).  Failures
            land in ``report.problems``.

    Returns:
        A :class:`DifferentialReport`; ``report.ok`` is the audited
        invariant of the whole reproduction.
    """
    if cache_parity and compute_cache is None:
        raise ValueError("cache_parity=True requires a compute_cache")
    if engine_names is None:
        engine_names = tuple(n for n in ENGINE_NAMES if n != ORACLE_ENGINE)
    oracle_engine = build_engine(ORACLE_ENGINE, bundle, platform,
                                 expert_cache_ratio, calibration_probs)
    engines = {
        name: build_engine(name, bundle, platform, expert_cache_ratio,
                           calibration_probs)
        for name in engine_names
    }
    report = DifferentialReport(
        title=f"differential audit vs {ORACLE_ENGINE}"
    )
    model = bundle.model

    def record(comparison, engine, prompt, result) -> None:
        if cache_parity:
            comparison.check("cache parity", _generate_cache_off(
                model, compute_cache, engine, prompt, max_new_tokens
            ), result)
        report.comparisons.append(comparison)

    if compute_cache is not None:
        model.attach_compute_cache(compute_cache)
    try:
        for seed in seeds:
            generator = SequenceGenerator(dataset, bundle.vocab,
                                          seed=int(seed))
            prompt = generator.sample_sequence(
                prompt_len, 0, sample_idx=0
            ).prompt_tokens
            oracle_result = oracle_engine.generate(prompt, max_new_tokens)
            oracle = Comparison(label=f"{ORACLE_ENGINE}/seed{seed}")
            if audit_invariants:
                oracle.audits.append(
                    ("invariants", audit_generation(oracle_engine,
                                                    oracle_result))
                )
            record(oracle, oracle_engine, prompt, oracle_result)
            for name, engine in engines.items():
                result = engine.generate(prompt, max_new_tokens)
                record(_compare(engine, name, int(seed), oracle_result,
                                result, audit_invariants),
                       engine, prompt, result)
    finally:
        if compute_cache is not None:
            model.detach_compute_cache()
    return report


def _check_gathered(comparison: Comparison, engine, label: str,
                    prompts: list, solo_refs: list, max_new_tokens: int,
                    audit_invariants: bool):
    """Run ``prompts`` through a gathered scheduler and assert each
    sequence's values equal its solo run.

    Returns the batch's :class:`~repro.core.batching.GatherStats`.
    """
    batch = ContinuousBatchScheduler(engine, max_batch=len(prompts)).run([
        SequenceRequest(prompt_tokens=p, max_new_tokens=max_new_tokens,
                        seq_id=i)
        for i, p in enumerate(prompts)
    ])
    records = sorted(batch.records, key=lambda r: r.seq_id)
    for i, (record, solo) in enumerate(zip(records, solo_refs)):
        comparison.check(f"{label} seq{i}", solo, record.result,
                         differences=value_differences,
                         engine=engine if audit_invariants else None)
    return batch.gather


def run_step_parity_audit(
    bundle: ModelBundle,
    platform: Platform,
    engine_names=None,
    seeds=(0,),
    prompt_len: int = 16,
    max_new_tokens: int = 8,
    expert_cache_ratio: float = 0.5,
    calibration_probs: np.ndarray | None = None,
    dataset=C4,
    audit_invariants: bool = True,
    compute_cache=None,
) -> ParityReport:
    """Audit start/step/finish parity with ``generate()`` per engine.

    For every engine and seed, the same request is run three ways: the
    monolithic ``generate()``, an explicit ``start``/``step``/``finish``
    loop, and a batch-1 :class:`ContinuousBatchScheduler`.  Both step
    paths must be interchangeable with ``generate()``
    (:func:`~repro.audit.parity.result_differences`: values, timing and
    the per-op timeline), and each result they produce passes the full
    invariant audit (so scheduler output is interchangeable with
    ``generate()`` output everywhere downstream).

    A fourth path audits gathered cross-sequence execution: four
    distinct prompts run through a batch-4 gathered scheduler, and every
    sequence's values must equal its own solo ``generate()``
    (:func:`~repro.audit.parity.value_differences`: tokens, trace
    events, counters and final placement — the ``step_batch`` contract
    is that only the simulated schedule may change), with each batched
    result passing the invariant audit on its rebased timeline.  The
    four prompts share one length, so the scheduler's prompt-length
    bucketing forms a prefill cohort and the same parity check covers
    gathered *prefill* too; the audit additionally asserts that prefill
    kernels really were gathered, so this coverage cannot silently
    degrade to solo prefill.
    A fifth path repeats the check with four prompts of mixed lengths
    (``gathered-mixed@4``): prefill cohorts then stack members of
    unequal row counts, and decode cohorts attend over unequal context
    lengths, which runs the per-member attention core.  It runs with any
    compute cache detached, so the stacked computation itself is
    compared with the solo runs.

    An optional shared ``compute_cache`` is attached for the whole run —
    the paths then also exercise the memoization layer under the step
    machine and the scheduler.
    """
    if engine_names is None:
        engine_names = ENGINE_NAMES
    report = ParityReport(title="step-parity audit")
    model = bundle.model
    if compute_cache is not None:
        model.attach_compute_cache(compute_cache)
    try:
        for seed in seeds:
            generator = SequenceGenerator(dataset, bundle.vocab,
                                          seed=int(seed))
            prompts = [
                generator.sample_sequence(
                    prompt_len, 0, sample_idx=i
                ).prompt_tokens
                for i in range(4)
            ]
            # Mixed lengths: unequal prefill rows and decode contexts.
            mixed = [
                generator.sample_sequence(
                    max(1, prompt_len + delta), 0, sample_idx=4 + i
                ).prompt_tokens
                for i, delta in enumerate((0, 3, -5, 7))
            ]
            prompt = prompts[0]
            for name in engine_names:
                engine = build_engine(name, bundle, platform,
                                      expert_cache_ratio, calibration_probs)
                comparison = Comparison(label=f"{name}/seed{seed}")
                audited = engine if audit_invariants else None
                reference = engine.generate(prompt, max_new_tokens)

                state = engine.start(SequenceRequest(
                    prompt_tokens=prompt, max_new_tokens=max_new_tokens,
                ))
                while not state.done:
                    engine.step(state)
                comparison.check("start/step/finish", reference,
                                 engine.finish(state), engine=audited)

                scheduler = ContinuousBatchScheduler(engine, max_batch=1)
                batch = scheduler.run([SequenceRequest(
                    prompt_tokens=prompt, max_new_tokens=max_new_tokens,
                )])
                comparison.check("scheduler@1", reference,
                                 batch.records[0].result, engine=audited)

                solo_refs = [reference] + [
                    engine.generate(p, max_new_tokens) for p in prompts[1:]
                ]
                gather = _check_gathered(
                    comparison, engine, "gathered@4", prompts, solo_refs,
                    max_new_tokens, audit_invariants,
                )
                if gather.prefill_expert_kernels == 0:
                    comparison.problems.append(
                        "gathered@4: prefill kernels were not gathered "
                        "(bucketing did not form a cohort)"
                    )
                elif not (gather.prefill_expert_kernels
                          < gather.prefill_expert_ops):
                    comparison.problems.append(
                        "gathered@4: prefill expert calls were not "
                        "amortized across the cohort"
                    )
                solo_mixed = [engine.generate(p, max_new_tokens)
                              for p in mixed]
                # Detached, so the gathered run computes (a cache would
                # serve it the solo runs' entries).
                if compute_cache is not None:
                    model.detach_compute_cache()
                try:
                    _check_gathered(
                        comparison, engine, "gathered-mixed@4", mixed,
                        solo_mixed, max_new_tokens, audit_invariants,
                    )
                finally:
                    if compute_cache is not None:
                        model.attach_compute_cache(compute_cache)
                report.comparisons.append(comparison)
    finally:
        if compute_cache is not None:
            model.detach_compute_cache()
    return report
