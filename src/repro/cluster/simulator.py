"""Discrete-event multi-replica serving simulation over real engines.

One arrival trace is served by N engine replicas.  The simulation is an
event loop over :mod:`repro.cluster.events`: arrivals are routed to a
replica by the active :class:`~repro.cluster.routing.RoutingPolicy`
(subject to :class:`~repro.cluster.admission.AdmissionController`
bounds), dispatches start service on idle replicas, and completions free
them.  A dispatch serves a *gang* of up to ``concurrency`` queued
requests through the engine's resumable step machine (so one replica can
overlap the decode of one request with the prefill of the next); at the
default ``concurrency=1`` service is sequential, one request at a time.
Service times are each engine's *simulated* generation times, so the
whole cluster trace stays in simulated seconds; everything is
deterministic given the arrival trace, the workload seed, and the
policy.

Cache warmth is modeled with the engines' own machinery: each replica
carries its expert placement forward from request to request, so a DAOP
replica's GPU cache stays tuned to the traffic it recently served
(Algorithm 1 re-tunes it during each prefill).  Routing therefore
*matters*: sending a request to a replica warmed on similar traffic
finds its dominant experts already resident — fewer prefill swaps and a
higher expert-cache hit rate, the dominant latency term in the
caching/pre-fetching analyses this subsystem reproduces at fleet scale.

Request fingerprints (for affinity routing and the warm-cache metric)
come from an exact forward pass over the prompt — the same routing the
engine's own prefill will compute (all engines' prefill routing is
exact), treated as control-plane work that charges no simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.admission import AdmissionController, EXPIRED, SHED, SLOTarget
from repro.cluster.events import (
    ARRIVAL,
    COMPLETION,
    DISPATCH,
    EventQueue,
    ReplicaState,
    RequestInfo,
)
from repro.cluster.report import (
    ClusterReport,
    ClusterRequest,
    RejectedRequest,
)
from repro.cluster.routing import RoutingPolicy
from repro.core.batching import GatherStats
from repro.core.engine import BaseEngine, SequenceRequest
from repro.events import (
    CHECKPOINT_RESTORE,
    CHECKPOINT_SAVE,
    CLUSTER_ARRIVAL,
    CLUSTER_COMPLETION,
    CLUSTER_DISPATCH,
    CLUSTER_REJECT,
    EventBus,
)
from repro.memory.placement import ExpertPlacement
from repro.model.serialization import (
    decode_array,
    decode_optional_array,
    encode_array,
    encode_optional_array,
)
from repro.sched.scheduler import ContinuousBatchScheduler
from repro.serving.checkpoint import (
    CLUSTER_KIND,
    CheckpointError,
    SimCheckpoint,
)
from repro.workloads.generator import SequenceGenerator
from repro.workloads.requests import RequestSpec, uniform_requests


def prefill_fingerprint(model, prompt_tokens: np.ndarray) -> np.ndarray:
    """Per-(block, expert) activation counts of a prompt's exact routing.

    This is the request's row in the paper's prefill activation matrix
    (Eq. 1's :math:`P_{i,j}` numerator): how many prompt tokens each
    expert attracts at each block.  Engines' prefill routing is exact,
    so the fingerprint predicts where the request's prefill (and, per
    the paper's observation ②, most of its decode) will execute.
    """
    _, decisions = model.forward_exact(np.asarray(prompt_tokens,
                                                  dtype=np.int64))
    counts = np.zeros((model.n_blocks, model.n_experts), dtype=np.float64)
    for block_idx, decision in enumerate(decisions):
        for t in range(decision.n_tokens):
            for expert in decision.experts[t]:
                counts[block_idx, int(expert)] += 1.0
    return counts


def warm_hit_rate(placement: ExpertPlacement,
                  fingerprint: np.ndarray) -> float:
    """Count-weighted fraction of fingerprint activations GPU-resident.

    Evaluated against a replica's placement *before* it serves the
    request, this is the expert-cache hit rate the request would see on
    arrival — the quantity cache-affinity routing tries to maximize.
    """
    fingerprint = np.asarray(fingerprint, dtype=np.float64)
    total = fingerprint.sum()
    if total <= 0:
        return 0.0
    resident = fingerprint * placement.as_matrix()
    return float(resident.sum() / total)


@dataclass
class ClusterSession:
    """Resumable state of one cluster simulation, between events.

    Every field is either plain data or rebuildable from plain data, so
    a session checkpoints cleanly at any event boundary: the cluster's
    dispatches are atomic (a gang's whole service is computed when it
    starts), so no partial engine state ever needs to be captured.

    Attributes:
        requests: ``request_id -> RequestInfo`` for every offered
            request (insertion in arrival order, ties by request id).
        payloads: payload key -> ``(prompt_tokens, forced_tokens,
            output_len)`` served when a request dispatches.
        heap: the pending-event queue (the simulation clock).
        replicas: per-replica queueing state.
        warm: per-replica expert placements carried across gangs.
        report: the report under construction.
        gather: per-replica cumulative kernel-amortization stats.
    """

    requests: dict
    payloads: dict
    heap: EventQueue
    replicas: list
    warm: list
    report: ClusterReport
    gather: list

    @property
    def drained(self) -> bool:
        """Whether the event loop has run to completion."""
        return not self.heap


class ClusterSimulator:
    """Serve one arrival trace across N engine replicas.

    Each replica's expert placement always carries from gang to gang:
    DAOP's per-sequence allocation (Algorithm 1) leaves the GPU cache
    tuned to the traffic a replica served, which is what routing
    competes on.

    Args:
        engines: one constructed engine per replica (they are mutated:
            each replica's placement is carried across requests).
        generator: workload generator for :meth:`run`; request ``i``
            with sample index ``s`` serves
            ``generator.sample_sequence(..., sample_idx=s)`` so all
            policies serve byte-identical work.
        policy: routing policy instance (reset at each ``run``).
        admission: queue bound and TTFT deadline; defaults to
            ``AdmissionController()``.
        slo: targets for goodput / SLO-attainment accounting.
        concurrency: requests a replica serves concurrently per dispatch
            (a *gang*): the replica pulls up to this many queued requests
            at once and batches them in gathered cohorts via
            :class:`ContinuousBatchScheduler`, dispatching
            the next gang only once the whole gang has completed.  The
            default of 1 is the sequential one-request-at-a-time service
            of the paper's regime.
    """

    def __init__(
        self,
        engines: list[BaseEngine],
        generator: SequenceGenerator | None,
        policy: RoutingPolicy,
        admission: AdmissionController | None = None,
        slo: SLOTarget | None = None,
        concurrency: int = 1,
    ) -> None:
        if not engines:
            raise ValueError("at least one engine replica is required")
        if concurrency < 1:
            raise ValueError("concurrency must be positive")
        self.engines = list(engines)
        self.generator = generator
        self.policy = policy
        self.admission = admission or AdmissionController()
        self.slo = slo or SLOTarget()
        self.concurrency = concurrency
        self.events = EventBus()
        # Snapshot so repeated run() calls replay from identical state.
        self._base_placements = [
            engine.initial_placement.copy() for engine in self.engines
        ]

    def run(self, arrival_times: np.ndarray, prompt_len: int,
            output_len: int,
            sample_indices: list[int] | None = None) -> ClusterReport:
        """Simulate the fleet over one arrival trace; returns the report.

        Args:
            arrival_times: request arrival times in simulated seconds.
            prompt_len: prompt length of every request.
            output_len: decode length of every request.
            sample_indices: workload sample index per request; defaults
                to ``0..n-1``.  Repeating indices builds
                similarity-clustered traffic (sticky sessions, shared
                templates) — the regime where cache-affinity routing
                pays off.
        """
        return self.run_requests(uniform_requests(
            self.generator, arrival_times, prompt_len, output_len,
            sample_indices,
        ))

    def run_requests(self, specs: list[RequestSpec]) -> ClusterReport:
        """Simulate the fleet over fully-materialized requests.

        Equivalent to :meth:`begin_session` followed by :meth:`tick`
        until drained and :meth:`finish_session`.
        """
        session = self.begin_session(specs)
        while self.tick(session):
            pass
        return self.finish_session(session)

    def begin_session(self, specs: list[RequestSpec]) -> ClusterSession:
        """Open a resumable session over fully-materialized requests.

        Each :class:`~repro.workloads.requests.RequestSpec` carries its
        own arrival time, tokens, and decode length, so heterogeneous
        scenario traffic flows through the same routing/admission/gang
        machinery as the uniform regime.  Prefill fingerprints are
        deduplicated by *content* (prompt + forced tokens + decode
        length), not by ``sample_idx`` — per-tenant generators can reuse
        sample indices for different token content, so requests with
        identical content share one fingerprint (and read as
        similarity-clustered traffic to affinity routing) while distinct
        content never aliases.
        """
        ordered = sorted(specs,
                         key=lambda spec: (spec.arrival_s,
                                           spec.request_id))
        if len({spec.request_id for spec in ordered}) != len(ordered):
            raise ValueError("request_id values must be unique")

        model = self.engines[0].model
        key_by_content = {}
        payloads = {}
        fingerprints = {}
        requests = {}
        for spec in ordered:
            content = (spec.content_key(), spec.output_len)
            if content not in key_by_content:
                key_by_content[content] = spec.request_id
                payloads[spec.request_id] = (
                    spec.prompt_tokens, spec.forced_tokens,
                    spec.output_len,
                )
                fingerprints[spec.request_id] = prefill_fingerprint(
                    model, spec.prompt_tokens
                )
            key = key_by_content[content]
            requests[spec.request_id] = RequestInfo(
                request_id=spec.request_id,
                arrival_s=spec.arrival_s,
                sample_idx=key,
                fingerprint=fingerprints[key],
            )
        replicas = [ReplicaState() for _ in self.engines]
        warm = [placement.copy() for placement in self._base_placements]
        for engine, placement in zip(self.engines, warm):
            engine.initial_placement = placement
        self.policy.reset(len(self.engines))

        report = ClusterReport(
            engine=",".join(sorted({e.name for e in self.engines})),
            policy=self.policy.name,
            n_replicas=len(self.engines),
            slo=self.slo,
        )
        heap = EventQueue()
        for request in requests.values():
            heap.push(request.arrival_s, ARRIVAL,
                      request_id=request.request_id)
        return ClusterSession(
            requests=requests,
            payloads=payloads,
            heap=heap,
            replicas=replicas,
            warm=warm,
            report=report,
            gather=[GatherStats() for _ in self.engines],
        )

    def tick(self, session: ClusterSession) -> bool:
        """Fire the next pending event; False once the loop is drained.

        Each tick handles exactly one event, so the session sits at an
        event boundary — the granularity :meth:`checkpoint` captures —
        after every call.
        """
        if not session.heap:
            return False
        event = session.heap.pop()
        if event.kind == ARRIVAL:
            self._on_arrival(session, session.requests[event.request_id])
        elif event.kind == DISPATCH:
            self._on_dispatch(session, event.replica)
        elif event.kind == COMPLETION:
            self._on_completion(session, event.request_id, event.replica)
        return True

    def finish_session(self, session: ClusterSession) -> ClusterReport:
        """Seal a drained session and return its report."""
        if not session.drained:
            raise RuntimeError(
                "cluster session still has pending events; tick() it "
                "to completion first"
            )
        session.report.replica_busy_s = [
            replica.busy_time_s for replica in session.replicas
        ]
        session.report.replica_gather = list(session.gather)
        return session.report

    # ---- checkpoint / restore --------------------------------------------------

    def checkpoint(self, session: ClusterSession) -> SimCheckpoint:
        """Freeze a session at its current event boundary.

        Dispatches are atomic, so a between-events snapshot needs no
        partial engine state: the heap, replica queues, warm placements,
        routing-policy state, and the report-so-far fully determine the
        remainder of the simulation.
        """
        payload = {
            "n_replicas": len(self.engines),
            "concurrency": self.concurrency,
            "policy": {
                "name": self.policy.name,
                "state": self.policy.state_dict(),
            },
            "admission": {
                "max_queue_len": self.admission.max_queue_len,
                "ttft_deadline_s": self.admission.ttft_deadline_s,
            },
            "heap": session.heap.to_state_dict(),
            "replicas": [replica.to_state_dict()
                         for replica in session.replicas],
            "warm": [placement.to_state_dict()
                     for placement in session.warm],
            "report": session.report.to_state_dict(),
            "gather": [stats.to_state_dict() for stats in session.gather],
            "requests": [info.to_state_dict()
                         for info in session.requests.values()],
            "payloads": [
                {
                    "key": key,
                    "prompt": encode_array(
                        np.asarray(prompt, dtype=np.int64)
                    ),
                    "forced": encode_optional_array(forced),
                    "output_len": int(output_len),
                }
                for key, (prompt, forced, output_len)
                in session.payloads.items()
            ],
        }
        checkpoint = SimCheckpoint(
            kind=CLUSTER_KIND,
            engine=session.report.engine,
            payload=payload,
        )
        if self.events.active:
            self.events.emit(
                CHECKPOINT_SAVE, session.heap.now, sim_kind=CLUSTER_KIND,
                engine=session.report.engine,
                n_pending=len(session.heap),
                n_completed=len(session.report.requests),
            )
        return checkpoint

    def restore(self, checkpoint: SimCheckpoint) -> ClusterSession:
        """Rebuild a session frozen by :meth:`checkpoint`.

        Raises:
            CheckpointError: if the checkpoint belongs to another
                simulator kind or was written under a different fleet
                configuration than this simulator's.
        """
        if checkpoint.kind != CLUSTER_KIND:
            raise CheckpointError(
                f"cannot restore a {checkpoint.kind!r} checkpoint into "
                f"a cluster simulator"
            )
        payload = checkpoint.payload
        expected = {
            "n_replicas": len(self.engines),
            "concurrency": self.concurrency,
            "policy": self.policy.name,
            "engine": ",".join(sorted({e.name for e in self.engines})),
            "max_queue_len": self.admission.max_queue_len,
            "ttft_deadline_s": self.admission.ttft_deadline_s,
        }
        recorded = {
            "n_replicas": payload["n_replicas"],
            "concurrency": payload["concurrency"],
            "policy": payload["policy"]["name"],
            "engine": checkpoint.engine,
            "max_queue_len": payload["admission"]["max_queue_len"],
            "ttft_deadline_s": payload["admission"]["ttft_deadline_s"],
        }
        for key, want in expected.items():
            if recorded[key] != want:
                raise CheckpointError(
                    f"checkpoint {key} mismatch: it records "
                    f"{recorded[key]!r} but this simulator is "
                    f"configured with {want!r}"
                )

        warm = [ExpertPlacement.from_state_dict(entry)
                for entry in payload["warm"]]
        for engine, placement in zip(self.engines, warm):
            engine.initial_placement = placement
        self.policy.reset(len(self.engines))
        self.policy.load_state_dict(payload["policy"]["state"])
        session = ClusterSession(
            requests={
                int(entry["request_id"]): RequestInfo.from_state_dict(entry)
                for entry in payload["requests"]
            },
            payloads={
                int(entry["key"]): (
                    decode_array(entry["prompt"]),
                    decode_optional_array(entry["forced"]),
                    int(entry["output_len"]),
                )
                for entry in payload["payloads"]
            },
            heap=EventQueue.from_state_dict(payload["heap"]),
            replicas=[ReplicaState.from_state_dict(entry)
                      for entry in payload["replicas"]],
            warm=warm,
            report=ClusterReport.from_state_dict(payload["report"]),
            gather=[GatherStats.from_state_dict(entry)
                    for entry in payload["gather"]],
        )
        if self.events.active:
            self.events.emit(
                CHECKPOINT_RESTORE, session.heap.now, sim_kind=CLUSTER_KIND,
                engine=checkpoint.engine, n_pending=len(session.heap),
                n_completed=len(session.report.requests),
            )
        return session

    # ---- event handlers --------------------------------------------------------

    def _forward_event(self, event) -> None:
        """Re-emit an engine/scheduler event on the simulator's bus."""
        self.events.emit(event.kind, event.time_s, **event.payload)

    def _reject(self, session: ClusterSession, request: RequestInfo,
                replica_idx: int, reason: str) -> None:
        """Record one admission rejection (shed or expired)."""
        session.report.rejected.append(
            RejectedRequest(
                request_id=request.request_id,
                arrival_s=request.arrival_s,
                replica=replica_idx,
                reason=reason,
            )
        )
        if self.events.active:
            self.events.emit(
                CLUSTER_REJECT, session.heap.now,
                request_id=request.request_id, replica=replica_idx,
                reason=reason,
            )

    def _on_arrival(self, session: ClusterSession,
                    request: RequestInfo) -> None:
        """Route one arrival; admit it to a queue or shed it."""
        heap = session.heap
        replica_idx = self.policy.select(request, session.replicas)
        replica = session.replicas[replica_idx]
        if not self.admission.admit(len(replica.queue)):
            self._reject(session, request, replica_idx, SHED)
            return
        replica.queue.append(request.request_id)
        self.policy.observe(replica_idx, request)
        if self.events.active:
            self.events.emit(
                CLUSTER_ARRIVAL, heap.now,
                request_id=request.request_id, replica=replica_idx,
                n_queued=len(replica.queue),
            )
        if replica.idle:
            heap.push(heap.now, DISPATCH, replica=replica_idx)

    def _on_dispatch(self, session: ClusterSession,
                     replica_idx: int) -> None:
        """Start service on an idle replica, expiring dead requests.

        The replica pulls a *gang* of up to ``self.concurrency`` queued
        requests and serves them concurrently through the engine step
        machine on a fresh resource clock (so a gang of one is exactly
        the engine's solo ``generate()`` schedule).  Every gang member's
        warm-cache hit rate is evaluated against the placement as warmed
        by the *previous* gang; the placement carried forward is the one
        left by the gang's last-finishing member.
        """
        heap = session.heap
        replica = session.replicas[replica_idx]
        if not replica.idle or not replica.queue:
            return  # stale dispatch event
        now = heap.now
        request = session.requests[replica.queue.popleft()]
        if self.admission.expired(request.arrival_s, now):
            self._reject(session, request, replica_idx, EXPIRED)
            if replica.queue:
                heap.push(now, DISPATCH, replica=replica_idx)
            return
        gang = [request]
        while len(gang) < self.concurrency and replica.queue:
            extra = session.requests[replica.queue.popleft()]
            if self.admission.expired(extra.arrival_s, now):
                self._reject(session, extra, replica_idx, EXPIRED)
                continue
            gang.append(extra)

        engine = self.engines[replica_idx]
        warm = session.warm
        hit_rates = {
            member.request_id: warm_hit_rate(warm[replica_idx],
                                             member.fingerprint)
            for member in gang
        }
        engine.initial_placement = warm[replica_idx]
        seq_requests = []
        for member in gang:
            prompt_tokens, forced_tokens, member_output_len = \
                session.payloads[member.sample_idx]
            seq_requests.append(
                SequenceRequest(
                    prompt_tokens=prompt_tokens,
                    max_new_tokens=member_output_len,
                    forced_tokens=forced_tokens,
                    seq_id=member.request_id,
                )
            )
        scheduler = ContinuousBatchScheduler(
            engine, max_batch=self.concurrency
        )
        if self.events.active:
            self.events.emit(
                CLUSTER_DISPATCH, now, replica=replica_idx,
                gang=[member.request_id for member in gang],
            )
            scheduler.events.subscribe(self._forward_event)
            # Re-subscribing after an unsubscribe keeps the forwarder
            # single even when one engine serves many gangs.
            engine.events.unsubscribe(self._forward_event)
            engine.events.subscribe(self._forward_event)
        batch = scheduler.run(seq_requests)
        session.gather[replica_idx].merge(batch.gather)
        last = max(batch.records, key=lambda rec: (rec.finish_s, rec.seq_id))
        warm[replica_idx] = last.result.placement

        batch_span = max(rec.finish_s for rec in batch.records)
        replica.in_service = gang[0].request_id
        replica.in_flight = len(gang)
        replica.busy_until = now + batch_span
        replica.busy_time_s += batch_span
        replica.n_served += len(gang)
        by_id = {rec.seq_id: rec for rec in batch.records}
        for member in gang:
            rec = by_id[member.request_id]
            stats = rec.result.stats
            session.report.requests.append(
                ClusterRequest(
                    request_id=member.request_id,
                    arrival_s=member.arrival_s,
                    start_s=now + rec.service_start_s,
                    first_token_s=now + rec.first_token_s,
                    finish_s=now + rec.finish_s,
                    n_prompt_tokens=stats.n_prompt_tokens,
                    n_generated=stats.n_generated,
                    energy_j=stats.energy.total_j,
                    replica=replica_idx,
                    warm_hit_rate=hit_rates[member.request_id],
                    engine_hit_rate=stats.counters.gpu_hit_rate,
                    prefill_swaps=stats.counters.prefill_swaps,
                )
            )
            heap.push(now + rec.finish_s, COMPLETION,
                      request_id=member.request_id, replica=replica_idx)

    def _on_completion(self, session: ClusterSession, request_id: int,
                       replica_idx: int) -> None:
        """Retire one gang member; free the replica once all are done."""
        heap = session.heap
        replica = session.replicas[replica_idx]
        if replica.in_flight > 0:
            replica.in_flight -= 1
        if self.events.active:
            self.events.emit(
                CLUSTER_COMPLETION, heap.now, request_id=request_id,
                replica=replica_idx, in_flight=replica.in_flight,
            )
        if replica.in_flight:
            return
        replica.in_service = None
        if replica.queue:
            heap.push(heap.now, DISPATCH, replica=replica_idx)
