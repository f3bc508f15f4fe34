"""Fully-materialized per-request workload descriptions.

A :class:`RequestSpec` pins down *one* serving request completely: when
it arrives, which tokens it carries, how many tokens it decodes, and the
tenant / SLO-class metadata the serving layers report against.  It is
the unit the scenario library (:mod:`repro.scenarios`) produces, the
serving simulators (``ServingSimulator.run_requests`` /
``ClusterSimulator.run_requests``) consume, and the v2 recorded-workload
format (:mod:`repro.workloads.replay`) round-trips to disk — which is
what makes any scenario replayable bit-exactly against a different
engine or platform.  :func:`uniform_requests` builds the uniform-length
trace both simulators' ``run`` entry points serve, and
:func:`percentile_or_zero` is the percentile every serving and scenario
report aggregates its per-request latencies with.

SLO classes partition requests by latency expectation: ``interactive``
traffic (chat) is TTFT-sensitive, ``batch`` traffic (offline
summarization) tolerates queueing but wants throughput, and
``long_context`` traffic carries long prompts with relaxed deadlines.
Per-class targets live in :data:`SLO_CLASS_TARGETS`; reports break
attainment out per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workloads.generator import SequenceGenerator

#: TTFT-sensitive chat-style traffic.
INTERACTIVE = "interactive"
#: Throughput-oriented offline traffic (tolerates queueing).
BATCH = "batch"
#: Long-prompt traffic with relaxed deadlines.
LONG_CONTEXT = "long_context"

#: Every recognized SLO class, in canonical order.
SLO_CLASSES = (INTERACTIVE, BATCH, LONG_CONTEXT)

#: Default per-class latency targets: ``(ttft_s, tpot_s)`` in simulated
#: seconds.  Interactive traffic wants the first token fast; batch and
#: long-context traffic trade TTFT headroom for sustained decode.
SLO_CLASS_TARGETS = {
    INTERACTIVE: (30.0, 1.0),
    BATCH: (240.0, 2.0),
    LONG_CONTEXT: (120.0, 1.5),
}

#: Tenant name used when a workload has no tenant structure.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class RequestSpec:
    """One fully-materialized serving request.

    Attributes:
        request_id: unique identifier; carried through simulator reports
            (``seq_id`` on the engine side) so scenario metadata can be
            joined back onto per-request serving records.
        arrival_s: arrival time in simulated seconds.
        prompt_tokens: input token ids (non-empty 1-D int64 array).
        output_len: decode steps to run (>= 1).
        forced_tokens: optional teacher-forced decode inputs (same
            semantics as :class:`repro.core.engine.SequenceRequest`).
        dataset: name of the dataset the tokens were drawn from (pure
            metadata; the tokens themselves are already materialized).
        tenant: tenant name for per-tenant report breakdowns.
        slo_class: one of :data:`SLO_CLASSES`.
        session: session identifier for prefix-reuse workloads, or None
            for sessionless requests.
        sample_idx: workload-generator sample index the tokens came
            from; requests sharing a ``sample_idx`` carry identical
            tokens, which the cluster simulator exploits to compute
            routing fingerprints once per distinct sample.
    """

    request_id: int
    arrival_s: float
    prompt_tokens: np.ndarray = field(repr=False)
    output_len: int = 1
    forced_tokens: np.ndarray | None = field(repr=False, default=None)
    dataset: str = "unknown"
    tenant: str = DEFAULT_TENANT
    slo_class: str = INTERACTIVE
    session: int | None = None
    sample_idx: int = 0

    def __post_init__(self) -> None:
        prompt = np.asarray(self.prompt_tokens, dtype=np.int64)
        if prompt.ndim != 1 or prompt.size == 0:
            raise ValueError("prompt_tokens must be a non-empty 1-D array")
        object.__setattr__(self, "prompt_tokens", prompt)
        if self.forced_tokens is not None:
            forced = np.asarray(self.forced_tokens, dtype=np.int64)
            object.__setattr__(self, "forced_tokens", forced)
        if self.output_len < 1:
            raise ValueError("output_len must be positive")
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        if self.slo_class not in SLO_CLASSES:
            raise ValueError(
                f"unknown slo_class {self.slo_class!r}; "
                f"known: {SLO_CLASSES}"
            )

    @property
    def prompt_len(self) -> int:
        """Prompt length in tokens."""
        return int(self.prompt_tokens.size)

    def content_key(self) -> bytes:
        """Digest key of the request's token content (not its metadata).

        Two requests with equal keys carry byte-identical prompt and
        forced tokens; the cluster simulator uses this to compute the
        expensive routing fingerprint once per distinct content.
        """
        forced = (b"" if self.forced_tokens is None
                  else self.forced_tokens.tobytes())
        return b"|".join([self.prompt_tokens.tobytes(), forced])


def slo_targets(slo_class: str) -> tuple:
    """``(ttft_s, tpot_s)`` latency targets of one SLO class (seconds)."""
    try:
        return SLO_CLASS_TARGETS[slo_class]
    except KeyError:
        raise KeyError(
            f"unknown slo_class {slo_class!r}; known: {SLO_CLASSES}"
        ) from None


def uniform_requests(generator: SequenceGenerator | None,
                     arrival_times, prompt_len: int, output_len: int,
                     sample_indices=None) -> list[RequestSpec]:
    """One uniform-length request per arrival time.

    Arrivals are sorted; request ``i`` (in arrival order) carries the
    tokens of ``generator.sample_sequence(..., sample_idx=s)`` with
    ``s = sample_indices[i]``, so two simulators given the same trace
    serve identical work.

    Args:
        generator: deterministic workload source.
        arrival_times: request arrival times in simulated seconds.
        prompt_len: prompt length of every request.
        output_len: decode length of every request.
        sample_indices: workload sample index per request; defaults to
            ``0..n-1``.  Repeating indices builds similarity-clustered
            traffic (sticky sessions, shared templates) — the regime
            where cache-affinity routing pays off.

    Raises:
        ValueError: without a generator, or when ``sample_indices`` and
            ``arrival_times`` differ in length.
    """
    if generator is None:
        raise ValueError(
            "uniform requests need a workload generator; pass "
            "RequestSpec lists to run_requests() instead"
        )
    arrival_times = np.sort(np.asarray(arrival_times, dtype=np.float64))
    if sample_indices is None:
        sample_indices = range(arrival_times.size)
    if len(sample_indices) != arrival_times.size:
        raise ValueError("sample_indices must match arrival_times in length")
    sequences = {}
    specs = []
    for i, (arrival, idx) in enumerate(zip(arrival_times, sample_indices)):
        idx = int(idx)
        if idx not in sequences:
            sequences[idx] = generator.sample_sequence(
                prompt_len, output_len, sample_idx=idx
            )
        sequence = sequences[idx]
        specs.append(
            RequestSpec(
                request_id=i,
                arrival_s=float(arrival),
                prompt_tokens=sequence.prompt_tokens,
                output_len=output_len,
                forced_tokens=sequence.continuation_tokens,
                dataset=generator.spec.name,
                sample_idx=idx,
            )
        )
    return specs


def percentile_or_zero(values, q: float) -> float:
    """``np.percentile`` that returns 0.0 for an empty value list.

    ``np.percentile`` raises on empty input; reports regularly aggregate
    zero requests (overloaded replicas that shed everything, filtered
    tenant or SLO-class views), and a 0.0 keeps those reports renderable.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, q))
