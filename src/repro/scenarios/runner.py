"""Scenario materialization and end-to-end execution.

:class:`ScenarioRunner` turns a declarative
:class:`~repro.scenarios.spec.ScenarioSpec` into a fully-materialized
:class:`~repro.workloads.requests.RequestSpec` list — deterministically,
keyed only on ``(spec, seed)`` — and drives any serving backend that
exposes the session lifecycle (``ServingSimulator`` for one engine,
``ClusterSimulator`` for a fleet; the runner never imports either, the
same duck-typed decoupling ``repro.model`` uses for the compute cache).
The joined result is a :class:`~repro.scenarios.report.ScenarioReport`
whose content digest makes two runs diffable.

Materialization rules:

- arrivals come from the spec's arrival process under a scenario-scoped
  seeded RNG;
- each request draws its tenant from the weighted mix, then its prompt
  and output lengths from that tenant's distributions;
- a tenant with ``n_distinct`` reuses whole requests round-robin from a
  pool of that many distinct samples (similarity-clustered traffic);
- a session tenant groups consecutive requests into sessions that share
  a ``prefix_len``-token prompt prefix, each request appending its own
  fresh suffix (multi-turn reuse);
- ``fast=True`` caps the request count and token lengths for smoke runs
  (CI) while keeping full determinism.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.scenarios.report import (
    ScenarioRejection,
    ScenarioReport,
    ScenarioRequestRecord,
)
from repro.scenarios.spec import ScenarioSpec
from repro.workloads.datasets import get_dataset
from repro.workloads.generator import SequenceGenerator
from repro.workloads.requests import RequestSpec

#: ``sample_idx`` namespace offset for session prefix draws, so prefix
#: samples never collide with per-request suffix samples.
_PREFIX_SAMPLE_BASE = 1_000_000

#: Per-tenant session-id stride, so session ids stay globally unique.
_SESSION_STRIDE = 100_000


@dataclass
class ScenarioSession:
    """Resumable state of one scenario run.

    Pairs the materialized request list with the backend's own session
    object; the runner threads both through ``tick``/``finish`` and the
    backend handles all checkpointable state (the request list itself is
    re-materialized deterministically from ``(spec, seed)`` on resume).
    """

    specs: list
    backend: object


class ScenarioRunner:
    """Materialize and execute one scenario.

    Args:
        spec: the scenario to run.
        vocab: the model's :class:`~repro.model.vocab.TopicVocabulary`
            (token content must match the engine under test).
        seed: scenario seed; ``(spec, seed)`` fully determines the
            request list.
        fast: smoke mode — caps the request count at ``fast_requests``
            and every sampled token length at ``fast_max_len``.
        fast_requests: request-count cap applied when ``fast`` is set.
        fast_max_len: token-length cap applied when ``fast`` is set.
    """

    def __init__(self, spec: ScenarioSpec, vocab, seed: int = 0,
                 fast: bool = False, fast_requests: int = 6,
                 fast_max_len: int = 12) -> None:
        if fast_requests < 1 or fast_max_len < 2:
            raise ValueError("fast caps must be positive (max_len >= 2)")
        self.spec = spec
        self.vocab = vocab
        self.seed = seed
        self.fast = fast
        self.fast_requests = fast_requests
        self.fast_max_len = fast_max_len

    # ---- materialization -------------------------------------------------------

    def _scenario_rng(self) -> np.random.Generator:
        """The scenario-scoped RNG (tenant mix, lengths, arrivals)."""
        return np.random.default_rng(np.random.SeedSequence(
            [self.seed, zlib.crc32(self.spec.name.encode()) & 0xFFFF]
        ))

    def _tenant_generator(self, tenant) -> SequenceGenerator:
        """The per-tenant sequence generator (independent token stream)."""
        tenant_seed = (self.seed * 100_003
                       + zlib.crc32(tenant.name.encode())) & 0x7FFFFFFF
        return SequenceGenerator(get_dataset(tenant.dataset), self.vocab,
                                 seed=tenant_seed)

    def _clamp(self, length: int) -> int:
        """Apply the fast-mode token-length cap."""
        if self.fast:
            return max(2, min(length, self.fast_max_len))
        return int(length)

    def build_requests(self) -> list:
        """Materialize the scenario's request list (deterministic)."""
        rng = self._scenario_rng()
        n = self.spec.arrival.n_requests
        if self.fast:
            n = min(n, self.fast_requests)
        arrivals = self.spec.arrival.generate(rng, n_requests=n)
        tenants = self.spec.tenants
        assignment = rng.choice(len(tenants), size=n,
                                p=self.spec.tenant_weights)
        generators = {t.name: self._tenant_generator(t) for t in tenants}
        ordinals = {t.name: 0 for t in tenants}
        distinct_pool = {t.name: {} for t in tenants}
        specs = []
        for i in range(n):
            tenant = tenants[int(assignment[i])]
            prompt_len = self._clamp(tenant.prompt_len.sample(rng))
            output_len = self._clamp(tenant.output_len.sample(rng))
            ordinal = ordinals[tenant.name]
            ordinals[tenant.name] = ordinal + 1
            generator = generators[tenant.name]
            session_id = None
            if tenant.session is not None:
                prompt, forced, sample_idx, session_id = \
                    self._session_request(tenant, generator, ordinal,
                                          prompt_len, output_len)
                session_id += _SESSION_STRIDE * int(assignment[i])
            elif tenant.n_distinct is not None:
                key = ordinal % tenant.n_distinct
                pool = distinct_pool[tenant.name]
                if key not in pool:
                    sequence = generator.sample_sequence(
                        prompt_len, output_len, sample_idx=key
                    )
                    pool[key] = (sequence.prompt_tokens,
                                 sequence.continuation_tokens,
                                 output_len)
                prompt, forced, output_len = pool[key]
                sample_idx = key
            else:
                sequence = generator.sample_sequence(
                    prompt_len, output_len, sample_idx=ordinal
                )
                prompt = sequence.prompt_tokens
                forced = sequence.continuation_tokens
                sample_idx = ordinal
            specs.append(RequestSpec(
                request_id=i,
                arrival_s=float(arrivals[i]),
                prompt_tokens=prompt,
                output_len=int(output_len),
                forced_tokens=forced,
                dataset=tenant.dataset,
                tenant=tenant.name,
                slo_class=tenant.slo_class,
                session=session_id,
                sample_idx=int(sample_idx),
            ))
        return specs

    def _session_request(self, tenant, generator, ordinal: int,
                         prompt_len: int, output_len: int):
        """Prompt/forced tokens of one session-tenant request.

        The request's prompt is the session's shared prefix (sampled
        once per session from a dedicated ``sample_idx`` namespace)
        followed by the request's own suffix, with the suffix's BOS
        dropped so the combined prompt has exactly one BOS at position
        zero.
        """
        session_ordinal = ordinal // tenant.session.requests_per_session
        prefix_len = self._clamp(tenant.session.prefix_len)
        prefix = generator.sample_sequence(
            prefix_len, 0,
            sample_idx=_PREFIX_SAMPLE_BASE + session_ordinal,
        )
        suffix = generator.sample_sequence(
            prompt_len, output_len, sample_idx=ordinal
        )
        prompt = np.concatenate(
            [prefix.prompt_tokens, suffix.prompt_tokens[1:]]
        )
        return (prompt, suffix.continuation_tokens, ordinal,
                session_ordinal)

    # ---- execution -------------------------------------------------------------

    def run(self, simulator, requests: list | None = None) -> ScenarioReport:
        """Serve the scenario through a simulator; returns the report.

        Composed from the resumable lifecycle — :meth:`begin`,
        :meth:`tick` to drain, :meth:`finish` — so an uninterrupted run
        and a checkpoint/resume run flow through identical code.

        Args:
            simulator: any backend exposing the session lifecycle
                (``begin_session`` / ``tick`` / ``finish_session``), a
                ``kind`` and a ``concurrency``, and returning a report
                of :class:`~repro.workloads.requests.ServedRequest`
                records plus its ``rejected`` ones
                (``ServingSimulator`` or ``ClusterSimulator``).
            requests: pre-materialized request list — pass the output of
                :func:`repro.workloads.replay.load_request_specs` to
                replay a pinned workload bit-exactly; None materializes
                fresh from the spec.
        """
        session = self.begin(simulator, requests=requests)
        while self.tick(simulator, session):
            pass
        return self.finish(simulator, session)

    def begin(self, simulator, requests: list | None = None) -> ScenarioSession:
        """Materialize the workload and open a backend session."""
        specs = self.build_requests() if requests is None else requests
        return ScenarioSession(
            specs=specs,
            backend=simulator.begin_session(specs),
        )

    def resume(self, simulator, checkpoint,
               requests: list | None = None) -> ScenarioSession:
        """Reopen a session from a backend checkpoint.

        The request list is re-materialized deterministically from
        ``(spec, seed)`` (or passed in for pinned replays) — it is not
        part of the checkpoint, which carries only the backend's
        progress through it.
        """
        specs = self.build_requests() if requests is None else requests
        return ScenarioSession(
            specs=specs,
            backend=simulator.restore(checkpoint),
        )

    def tick(self, simulator, session: ScenarioSession) -> bool:
        """Advance the backend one step; ``False`` once drained."""
        return simulator.tick(session.backend)

    def finish(self, simulator, session: ScenarioSession) -> ScenarioReport:
        """Close the backend session and join the scenario report."""
        backend_report = simulator.finish_session(session.backend)
        return self._join(session.specs, backend_report, simulator)

    def _join(self, specs: list, backend_report,
              simulator) -> ScenarioReport:
        """Join backend serving records with scenario metadata.

        The report's mode is the backend's checkpoint kind and its
        concurrency the backend's own, so the digest names exactly the
        backend that served the run.
        """
        by_id = {spec.request_id: spec for spec in specs}
        report = ScenarioReport(
            scenario=self.spec.name,
            engine=backend_report.engine,
            mode=simulator.kind,
            seed=self.seed,
            concurrency=simulator.concurrency,
        )
        for served in sorted(backend_report.requests,
                             key=lambda r: r.request_id):
            spec = by_id[served.request_id]
            report.requests.append(ScenarioRequestRecord(
                **served.served_fields(),
                tenant=spec.tenant,
                slo_class=spec.slo_class,
                dataset=spec.dataset,
                session=spec.session,
            ))
        for dropped in sorted(backend_report.rejected,
                              key=lambda r: r.request_id):
            spec = by_id[dropped.request_id]
            report.rejected.append(ScenarioRejection(
                request_id=dropped.request_id,
                tenant=spec.tenant,
                slo_class=spec.slo_class,
                arrival_s=dropped.arrival_s,
                reason=dropped.reason,
            ))
        return report
