"""Request-level serving simulation on top of the inference engines.

The paper evaluates single-request latency ("our experiments simulate
real-time inference scenarios by setting the batch size to one"); this
module extends the reproduction to the obvious deployment question: what
do queueing and sustained load do to each engine's user-visible latency?
Requests arrive by an arrival process and are served FIFO through the
engine's resumable step machine via
:class:`~repro.sched.scheduler.ContinuousBatchScheduler`: at the default
``concurrency=1`` this is exactly the paper's batch-size-one regime,
while higher concurrencies let the decode of one request overlap the
prefill of the next on the shared resource clock.  Every service time is
the engine's *simulated* generation time, so the whole serving trace
stays in simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import BaseEngine, SequenceRequest
from repro.events import CHECKPOINT_RESTORE, CHECKPOINT_SAVE, EventBus
from repro.hardware.timeline import GPU
from repro.sched.scheduler import BatchSession, ContinuousBatchScheduler
from repro.serving.checkpoint import (
    SERVING_KIND,
    CheckpointError,
    SimCheckpoint,
)
from repro.workloads.generator import SequenceGenerator
from repro.workloads.requests import (
    RequestAggregates,
    RequestSpec,
    arrival_order,
    uniform_requests,
)


@dataclass
class ServingReport(RequestAggregates):
    """Aggregate serving metrics over a request trace.

    ``requests`` holds the scheduler's
    :class:`~repro.sched.scheduler.SequenceRecord` per served request,
    in ``(arrival_s, request_id)`` order.
    """

    engine: str
    requests: list = field(default_factory=list)


@dataclass
class ServingSession:
    """Resumable state of one serving run (scheduler plus its session)."""

    scheduler: ContinuousBatchScheduler
    batch: BatchSession


class ServingSimulator:
    """FIFO serving of one engine through the continuous-batch scheduler.

    Args:
        engine: the engine under load.
        generator: deterministic workload source.
        concurrency: maximum concurrently resident sequences.  The
            default of 1 reproduces the paper's batch-size-one FIFO
            regime; larger values batch requests in gathered cohorts.
    """

    #: Checkpoint kind, also the scenario-report mode of this backend.
    kind = SERVING_KIND

    def __init__(self, engine: BaseEngine,
                 generator: SequenceGenerator | None = None,
                 concurrency: int = 1) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be positive")
        self.engine = engine
        self.generator = generator
        self.concurrency = concurrency
        #: Instance-scoped event bus; when anything subscribes, engine
        #: and scheduler events are forwarded here for live observation.
        self.events = EventBus()

    def _forward_event(self, event) -> None:
        """Re-emit an engine/scheduler event on the simulator's bus."""
        self.events.emit(event.kind, event.time_s, **event.payload)

    def _build_scheduler(self) -> ContinuousBatchScheduler:
        """Per-session scheduler, bridged onto the simulator's bus."""
        scheduler = ContinuousBatchScheduler(
            self.engine, max_batch=self.concurrency
        )
        if self.events.active:
            scheduler.events.subscribe(self._forward_event)
            # Re-subscribing after an unsubscribe keeps the forwarder
            # single even when one simulator runs several sessions.
            self.engine.events.unsubscribe(self._forward_event)
            self.engine.events.subscribe(self._forward_event)
        return scheduler

    def run(self, arrival_times: np.ndarray, prompt_len: int,
            output_len: int) -> ServingReport:
        """Serve one uniform-length request per arrival time.

        Requests are generated deterministically from the simulator's
        workload generator (request ``i`` uses ``sample_idx=i``; see
        :func:`~repro.workloads.requests.uniform_requests`), so two
        engines given the same arrival trace serve identical work.
        """
        return self.run_requests(uniform_requests(
            self.generator, arrival_times, prompt_len, output_len
        ))

    def run_requests(self, specs: list[RequestSpec]) -> ServingReport:
        """Serve fully-materialized requests; returns the report.

        Each :class:`~repro.workloads.requests.RequestSpec` carries its
        own arrival time, tokens, and decode length, so heterogeneous
        scenario traffic (mixed tenants, varying lengths) flows through
        the same FIFO/continuous-batching machinery as the uniform
        regime.  Requests are served in ``(arrival_s, request_id)``
        order; the spec's ``request_id`` is carried through as the
        report's ``request_id``.

        Raises:
            ValueError: when two specs share a ``request_id``.
        """
        session = self.begin_session(specs)
        while self.tick(session):
            pass
        return self.finish_session(session)

    # ---- resumable lifecycle ---------------------------------------------------

    def begin_session(self, specs: list[RequestSpec]) -> ServingSession:
        """Queue fully-materialized requests into a resumable session.

        Raises:
            ValueError: when two specs share a ``request_id``.
        """
        ordered = arrival_order(specs)
        requests = [
            SequenceRequest(
                prompt_tokens=spec.prompt_tokens,
                max_new_tokens=spec.output_len,
                forced_tokens=spec.forced_tokens,
                seq_id=spec.request_id,
            )
            for spec in ordered
        ]
        arrivals = np.asarray([spec.arrival_s for spec in ordered],
                              dtype=np.float64)
        scheduler = self._build_scheduler()
        return ServingSession(
            scheduler=scheduler,
            batch=scheduler.begin(requests, arrivals),
        )

    def tick(self, session: ServingSession) -> bool:
        """Advance the session one scheduler round; ``False`` when done."""
        return session.scheduler.tick(session.batch)

    def finish_session(self, session: ServingSession) -> ServingReport:
        """Summarize a drained session into a :class:`ServingReport`."""
        batch = session.scheduler.finish(session.batch)
        return ServingReport(engine=self.engine.name,
                             requests=list(batch.records))

    # ---- checkpoint / restore --------------------------------------------------

    def checkpoint(self, session: ServingSession) -> SimCheckpoint:
        """Capture a between-ticks session as a :class:`SimCheckpoint`."""
        checkpoint = SimCheckpoint(
            kind=self.kind,
            engine=self.engine.name,
            payload={
                "concurrency": self.concurrency,
                "scheduler": session.scheduler.checkpoint_session(
                    session.batch
                ),
            },
        )
        if self.events.active:
            self.events.emit(
                CHECKPOINT_SAVE, session.batch.clock.free[GPU],
                sim_kind=SERVING_KIND, engine=self.engine.name,
                n_active=len(session.batch.active),
                n_queued=len(session.batch.queue),
                n_completed=len(session.batch.report.records),
            )
        return checkpoint

    def restore(self, checkpoint: SimCheckpoint) -> ServingSession:
        """Rebuild a session captured by :meth:`checkpoint`.

        Raises:
            CheckpointError: if the checkpoint belongs to a different
                simulator kind or configuration.
        """
        if checkpoint.kind != self.kind:
            raise CheckpointError(
                f"checkpoint kind {checkpoint.kind!r} cannot resume on a "
                "serving simulator"
            )
        payload = checkpoint.payload
        if payload["concurrency"] != self.concurrency:
            raise CheckpointError(
                "serving configuration mismatch: checkpoint was taken "
                f"with concurrency={payload['concurrency']}, this "
                f"simulator runs concurrency={self.concurrency}"
            )
        scheduler = self._build_scheduler()
        try:
            batch = scheduler.restore_session(payload["scheduler"])
        except ValueError as exc:
            raise CheckpointError(str(exc)) from exc
        if self.events.active:
            self.events.emit(
                CHECKPOINT_RESTORE, batch.clock.free[GPU],
                sim_kind=SERVING_KIND, engine=self.engine.name,
                n_active=len(batch.active),
                n_queued=len(batch.queue),
                n_completed=len(batch.report.records),
            )
        return ServingSession(scheduler=scheduler, batch=batch)
