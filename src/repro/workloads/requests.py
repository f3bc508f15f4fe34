"""Fully-materialized per-request workload descriptions.

A :class:`RequestSpec` pins down *one* serving request completely: when
it arrives, which tokens it carries, how many tokens it decodes, and the
tenant / SLO-class metadata the serving layers report against.  It is
the unit the scenario library (:mod:`repro.scenarios`) produces, the
serving simulators (``ServingSimulator.run_requests`` /
``ClusterSimulator.run_requests``) consume in :func:`arrival_order`
order, and the v2 recorded-workload format (:mod:`repro.workloads.replay`)
round-trips to disk — which is what makes any scenario replayable
bit-exactly against a different engine or platform.
:func:`uniform_requests` builds the uniform-length trace both
simulators' ``run`` entry points serve.

This module also holds the served-request vocabulary every serving
report projects from: :class:`ServedRequest` is the one per-request
timing record (and the one definition of queue delay, TTFT, TPOT and
latency), :class:`RequestAggregates` the one aggregate set over such
records (makespan, throughput, latency percentiles, SLO attainment,
goodput), and :class:`SLOTarget` the one latency objective.  The
scheduler's batch report, the serving and cluster reports and the
scenario report all extend these.

SLO classes partition requests by latency expectation: ``interactive``
traffic (chat) is TTFT-sensitive, ``batch`` traffic (offline
summarization) tolerates queueing but wants throughput, and
``long_context`` traffic carries long prompts with relaxed deadlines.
Per-class targets live in :data:`SLO_CLASS_TARGETS`; reports break
attainment out per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain

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


@dataclass(frozen=True)
class SLOTarget:
    """Per-request service-level objectives.

    Attributes:
        ttft_s: time-to-first-token target in simulated seconds.
        tpot_s: time-per-output-token target in simulated seconds.
    """

    ttft_s: float = 30.0
    tpot_s: float = 1.0

    def __post_init__(self) -> None:
        if self.ttft_s <= 0 or self.tpot_s <= 0:
            raise ValueError("SLO targets must be positive")

    def met(self, ttft_s: float, tpot_s: float) -> bool:
        """Whether one request's latencies meet both targets."""
        return ttft_s <= self.ttft_s and tpot_s <= self.tpot_s


#: Default per-class latency targets.  Interactive traffic wants the
#: first token fast; batch and long-context traffic trade TTFT headroom
#: for sustained decode.
SLO_CLASS_TARGETS = {
    INTERACTIVE: SLOTarget(ttft_s=30.0, tpot_s=1.0),
    BATCH: SLOTarget(ttft_s=240.0, tpot_s=2.0),
    LONG_CONTEXT: SLOTarget(ttft_s=120.0, tpot_s=1.5),
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


def arrival_order(specs: list[RequestSpec]) -> list[RequestSpec]:
    """Requests in service order: by ``(arrival_s, request_id)``.

    Raises:
        ValueError: when two requests share a ``request_id`` (reports
            join per-request metadata back by id, so ids must be
            unique).
    """
    ordered = sorted(specs,
                     key=lambda spec: (spec.arrival_s, spec.request_id))
    if len({spec.request_id for spec in ordered}) != len(ordered):
        raise ValueError("request_id values must be unique")
    return ordered


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


@dataclass(frozen=True)
class ServedRequest:
    """One served request's timing record (simulated seconds).

    Attributes:
        request_id: the request's identifier (the engine's ``seq_id``).
        arrival_s: arrival time.
        start_s: start of the request's first scheduled op.
        first_token_s: completion of the prefill pass.
        finish_s: completion of the request's last op.
        n_prompt_tokens: prompt length.
        n_generated: generated-token count.
        energy_j: generation energy in joules.
    """

    request_id: int
    arrival_s: float
    start_s: float
    first_token_s: float
    finish_s: float
    n_prompt_tokens: int
    n_generated: int
    energy_j: float

    @property
    def queue_delay_s(self) -> float:
        """Time spent waiting for an engine."""
        return self.start_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        """Time to first token, from arrival."""
        return self.first_token_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency, from arrival to last token."""
        return self.finish_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Time per output token during decode."""
        decode = self.finish_s - self.first_token_s
        if self.n_generated <= 1:
            return 0.0
        return decode / (self.n_generated - 1)

    def served_fields(self) -> dict:
        """The :class:`ServedRequest` fields of this record, by name.

        A report annotating a served record with its own fields builds
        its record as ``Record(**served.served_fields(), ...)``.
        """
        return {f.name: getattr(self, f.name)
                for f in fields(ServedRequest)}

    def to_state_dict(self) -> dict:
        """Serialize the record for a checkpoint."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_state_dict(cls, payload: dict) -> "ServedRequest":
        """Rebuild a record captured by :meth:`to_state_dict`."""
        return cls(**{f.name: payload[f.name] for f in fields(cls)})


class RequestAggregates:
    """The one aggregate set over served requests.

    A report extends it and provides ``requests``, its served
    :class:`ServedRequest` records.  A report whose offered requests
    were not all served also provides ``rejected`` (records with an
    ``arrival_s``): the makespan then starts at the first offered
    arrival and SLO attainment counts every rejection as a miss.
    ``window_s``, when set, replaces the makespan as the time base of
    throughput and goodput, so a group of requests can be measured over
    the run it belongs to.  ``slo``, when set, is the one target every
    served request is judged against; otherwise each request carries its
    own ``slo_met`` verdict.
    """

    requests: list
    rejected: list = ()
    window_s: float | None = None
    slo: SLOTarget | None = None

    @property
    def n_served(self) -> int:
        """Requests that completed service."""
        return len(self.requests)

    @property
    def n_offered(self) -> int:
        """Every offered request, served or not."""
        return len(self.requests) + len(self.rejected)

    @property
    def total_generated(self) -> int:
        """Generated tokens across served requests."""
        return sum(r.n_generated for r in self.requests)

    @property
    def makespan_s(self) -> float:
        """Simulated seconds from the first offered arrival to the last
        completion."""
        if not self.requests:
            return 0.0
        first = min(r.arrival_s for r in chain(self.requests, self.rejected))
        return max(r.finish_s for r in self.requests) - first

    def _per_second(self, tokens: int) -> float:
        """``tokens`` over the time base (0.0 for an empty one)."""
        span = self.makespan_s if self.window_s is None else self.window_s
        if span <= 0:
            return 0.0
        return tokens / span

    @property
    def throughput_tokens_per_s(self) -> float:
        """Generated-token throughput over all served requests."""
        return self._per_second(self.total_generated)

    def _slo_met(self) -> list:
        """Served requests that met their SLO."""
        if self.slo is None:
            return [r for r in self.requests if r.slo_met]
        return [r for r in self.requests
                if self.slo.met(r.ttft_s, r.tpot_s)]

    @property
    def goodput_tokens_per_s(self) -> float:
        """Generated-token throughput counting only SLO-met requests."""
        return self._per_second(sum(r.n_generated for r in self._slo_met()))

    @property
    def slo_attainment(self) -> float:
        """Fraction of offered requests served within their SLO."""
        if self.n_offered == 0:
            return 0.0
        return len(self._slo_met()) / self.n_offered

    def ttft_percentile(self, q: float) -> float:
        """TTFT percentile (seconds) over served requests."""
        return percentile_or_zero([r.ttft_s for r in self.requests], q)

    def tpot_percentile(self, q: float) -> float:
        """TPOT percentile (seconds) over served requests."""
        return percentile_or_zero([r.tpot_s for r in self.requests], q)

    def latency_percentile(self, q: float) -> float:
        """End-to-end latency percentile (seconds) over served requests."""
        return percentile_or_zero([r.latency_s for r in self.requests], q)

    def _mean(self, values: list) -> float:
        """Mean of per-request values (0.0 without served requests)."""
        return float(np.mean(values)) if self.requests else 0.0

    @property
    def mean_queue_delay_s(self) -> float:
        """Mean time served requests waited for an engine."""
        return self._mean([r.queue_delay_s for r in self.requests])

    def mean_ttft_s(self) -> float:
        """Mean time to first token over served requests."""
        return self._mean([r.ttft_s for r in self.requests])

    def mean_tpot_s(self) -> float:
        """Mean time per output token over served requests."""
        return self._mean([r.tpot_s for r in self.requests])


@dataclass
class RequestGroup(RequestAggregates):
    """The aggregate set over an explicit subset of a report's requests.

    Attributes:
        requests: the subset's served records.
        rejected: the subset's rejected records.
        window_s: time base of throughput (the whole report's makespan).
    """

    requests: list
    rejected: list = field(default_factory=list)
    window_s: float | None = None
