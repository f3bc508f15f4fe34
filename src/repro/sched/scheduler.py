"""Continuous batching of resumable sequences on one engine.

The paper evaluates batch size one; this module exploits the engine
core's step machine (:meth:`~repro.core.engine.BaseEngine.start` /
``step`` / ``finish``) to interleave several sequences on one engine the
way production servers do (vLLM-style continuous batching): each
sequence keeps its own op chain, KV caches, placement copy, and policy
state, while all sequences contend for the same four hardware lanes
through a shared :class:`~repro.hardware.timeline.ResourceClock`.  The
decode of one request then overlaps with the prefill of the next --
exactly the cross-request overlap a batch-size-one loop cannot express.

Scheduling discipline (deterministic by construction):

- Admission is FIFO in arrival order, up to ``max_batch`` concurrent
  sequences.  A request joins a busy batch once its arrival time is no
  later than the GPU lane's availability (all sequence work enters
  through a GPU attention op, so the GPU lane is the admission clock);
  when the batch is empty the clock fast-forwards to the next arrival.
- Stepping runs in cohorts: each round, every prefill-phase sequence
  advances one whole pass together, whatever its prompt length, then
  every decode-phase sequence advances one token together, each cohort
  through one gathered engine step (a lone sequence is a cohort of
  one).  Then finished sequences retire and new ones are admitted.
- When the batch drains completely, every lane synchronizes to the last
  finish before new work starts -- so at ``max_batch=1`` the schedule
  degenerates to the sequential FIFO service of
  :class:`repro.serving.simulator.ServingSimulator` exactly.

Per-sequence results are rebased to sequence-local time by
:meth:`~repro.core.engine.BaseEngine.finish`, so every
:class:`~repro.core.engine.GenerationResult` a batch produces satisfies
the same audit invariants as a solo run; the absolute service times live
on the :class:`SequenceRecord`, a
:class:`~repro.workloads.requests.ServedRequest`, and the
:class:`BatchReport` takes its latency and throughput numbers from the
shared :class:`~repro.workloads.requests.RequestAggregates`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.batching import GatherStats
from repro.core.engine import (
    SEQ_PREFILL,
    BaseEngine,
    GenerationResult,
    SequenceRequest,
)
from repro.events import SCHED_ADMIT, SCHED_RETIRE, EventBus
from repro.hardware.timeline import (
    GPU,
    RESOURCES,
    ResourceClock,
    Timeline,
)
from repro.model.serialization import canonical_digest
from repro.workloads.requests import RequestAggregates, ServedRequest

#: Version of the scheduler-session checkpoint layout; restore rejects
#: other versions instead of misreading them.  Version 3 dropped the
#: execution-mode fields: the scheduler has one mode.  Version 4 writes
#: completed records in the served-request vocabulary (``request_id``,
#: ``start_s``, ``energy_j``).  Version 5 records carry each result's
#: in-flight upload keys (``pending_uploads``).
SCHED_CHECKPOINT_VERSION = 5


@dataclass(frozen=True)
class SequenceRecord(ServedRequest):
    """Absolute-time service record of one sequence in a batch.

    All times are in simulated seconds on the batch's shared clock, and
    ``request_id`` is the request's ``seq_id``.

    Attributes (beyond :class:`~repro.workloads.requests.ServedRequest`):
        result: the sequence-local :class:`GenerationResult` (timeline
            rebased to ``start_s``).
    """

    result: GenerationResult = field(repr=False, default=None)

    @property
    def seq_id(self) -> int:
        """The engine-side name of :attr:`request_id`."""
        return self.request_id

    def to_state_dict(self) -> dict:
        """Serialize the record for a checkpoint."""
        return {**self.served_fields(),
                "result": self.result.to_state_dict()}

    @classmethod
    def from_state_dict(cls, payload: dict) -> "SequenceRecord":
        """Rebuild a record captured by :meth:`to_state_dict`."""
        return cls(
            **ServedRequest.from_state_dict(payload).served_fields(),
            result=GenerationResult.from_state_dict(payload["result"]),
        )


@dataclass
class BatchReport(RequestAggregates):
    """Batch-level statistics of one scheduler run."""

    engine: str
    max_batch: int
    records: list = field(default_factory=list)
    gather: GatherStats = field(default_factory=GatherStats)

    @property
    def requests(self) -> list:
        """The completed records, as the aggregate set reads them."""
        return self.records

    @property
    def sum_solo_makespans_s(self) -> float:
        """Sum of each sequence's own service span (first to last op).

        Under strictly sequential service (``max_batch=1``) the spans
        are disjoint and this sum equals the batch makespan exactly.  A
        batch makespan below it means sequences were concurrently
        resident on the engine — the decode ops of one request
        interleaved with the prefill/decode ops of another on the
        shared lanes.
        """
        return sum(r.result.stats.total_time_s for r in self.records)

    @property
    def overlap_ratio(self) -> float:
        """``max(0, 1 - makespan / sum_solo_makespans)``.

        0.0 under sequential service; positive when sequence service
        spans overlap in wall-clock time.  Note the lane clocks are
        forward-only (FIFO list scheduling, no backfill), so batching
        reduces queueing delay and TTFT rather than total lane-busy
        time.  Degenerate batches are guarded: an empty report or one
        whose sequences all have zero-duration service spans reports
        0.0 (never a division by zero), and sparse arrivals whose idle
        gaps inflate the makespan beyond the summed spans clamp to 0.0
        instead of going negative — the ratio stays in ``[0, 1)``.
        """
        solo = self.sum_solo_makespans_s
        if solo <= 0:
            return 0.0
        return max(0.0, 1.0 - self.makespan_s / solo)

    @property
    def n_expert_ops(self) -> int:
        """Logical expert executions across all sequences (both devices)."""
        return sum(
            1
            for r in self.records
            for kind in r.result.timeline.kinds
            if kind in ("expert_gpu", "expert_cpu")
        )

    @property
    def n_expert_kernels(self) -> int:
        """Physical expert kernel launches the schedule actually paid for.

        Every logical op that joined a shared cross-sequence launch is
        replaced by its group's single kernel.
        """
        return (self.n_expert_ops - self.gather.expert_ops
                + self.gather.expert_kernels)

    def occupancy(self, resource: str) -> float:
        """Busy fraction of one lane over the batch makespan."""
        span = self.makespan_s
        if span <= 0:
            return 0.0
        busy = sum(r.result.timeline.busy_time(resource)
                   for r in self.records)
        return busy / span

    def to_json(self, indent: int = 2) -> str:
        """Deterministic JSON rendering (CI artifacts, diffing)."""
        payload = {
            "engine": self.engine,
            "max_batch": self.max_batch,
            "n_expert_ops": self.n_expert_ops,
            "n_expert_kernels": self.n_expert_kernels,
            "expert_amortization": self.gather.expert_amortization,
            "phases": self.gather.phase_stats(),
            "n_sequences": self.n_served,
            "makespan_s": self.makespan_s,
            "sum_solo_makespans_s": self.sum_solo_makespans_s,
            "overlap_ratio": self.overlap_ratio,
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
            "mean_ttft_s": self.mean_ttft_s(),
            "mean_tpot_s": self.mean_tpot_s(),
            "occupancy": {
                resource: self.occupancy(resource)
                for resource in RESOURCES
            },
            "sequences": [
                {
                    "seq_id": r.request_id,
                    "arrival_s": r.arrival_s,
                    "service_start_s": r.start_s,
                    "ttft_s": r.ttft_s,
                    "tpot_s": r.tpot_s,
                    "latency_s": r.latency_s,
                    "finish_s": r.finish_s,
                    "n_generated": r.n_generated,
                }
                for r in self.records
            ],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)


@dataclass
class _ActiveSequence:
    """One admitted sequence plus its arrival time."""

    state: object
    arrival_s: float


@dataclass
class BatchSession:
    """Resumable state of one scheduler run.

    Built by :meth:`ContinuousBatchScheduler.begin`, advanced one round
    at a time by :meth:`~ContinuousBatchScheduler.tick`, summarized by
    :meth:`~ContinuousBatchScheduler.finish` — and checkpointable
    between ticks via
    :meth:`~ContinuousBatchScheduler.checkpoint_session`.

    Attributes:
        queue: pending ``(request, arrival_s)`` pairs in arrival order.
        clock: the shared resource clock every admitted sequence's
            timeline schedules against.
        active: currently resident sequences, admission order.
        report: the report under construction (completed records plus
            gather statistics).
    """

    queue: deque
    clock: ResourceClock
    active: list
    report: BatchReport

    @property
    def drained(self) -> bool:
        """Whether every request has been served."""
        return not (self.queue or self.active)


class ContinuousBatchScheduler:
    """Batch up to ``max_batch`` sequences on one engine.

    Args:
        engine: any registered engine; its policy hooks run per sequence
            on per-sequence state, so baselines and DAOP batch alike.
        max_batch: maximum concurrently resident sequences (>= 1).
    """

    def __init__(self, engine: BaseEngine, max_batch: int = 4) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.engine = engine
        self.max_batch = max_batch
        #: Instance-scoped event bus (admission / retirement events).
        self.events = EventBus()

    # ---- lifecycle -------------------------------------------------------------

    def begin(self, requests: list[SequenceRequest],
              arrival_times: np.ndarray | None = None) -> BatchSession:
        """Queue every request and build a resumable batch session.

        Args:
            requests: the generation requests.  ``seq_id`` values are
                preserved in the records; requests are queued in
                arrival order (stable for ties).
            arrival_times: per-request arrival times in simulated
                seconds; defaults to all-zero (every request available
                at time zero).
        """
        n = len(requests)
        if arrival_times is None:
            arrivals = np.zeros(n, dtype=np.float64)
        else:
            arrivals = np.asarray(arrival_times, dtype=np.float64)
            if arrivals.shape != (n,):
                raise ValueError(
                    "arrival_times must have one entry per request"
                )
        order = np.argsort(arrivals, kind="stable")
        queue = deque(
            (requests[int(i)], float(arrivals[int(i)])) for i in order
        )
        report = BatchReport(engine=self.engine.name,
                             max_batch=self.max_batch)
        return BatchSession(
            queue=queue, clock=ResourceClock(), active=[], report=report,
        )

    def tick(self, session: BatchSession) -> bool:
        """Advance the session one scheduler round.

        One round admits what fits, steps every resident sequence one
        unit of work, and retires finished sequences.  Returns ``False``
        (doing nothing) once the session is drained, so
        ``while scheduler.tick(session): ...`` serves every request.
        The session is checkpointable between any two ticks.
        """
        if session.drained:
            return False
        self._admit(session.queue, session.active, session.clock)
        self._step_round(session.active, session.report)
        finished = [e for e in session.active if e.state.done]
        session.active = [e for e in session.active if not e.state.done]
        last_finish = 0.0
        for entry in finished:
            record = self._retire(entry)
            session.report.records.append(record)
            last_finish = max(last_finish, record.finish_s)
        if finished and not session.active:
            # Fully drained: lanes synchronize before new work, which
            # reproduces sequential FIFO service at max_batch=1.
            session.clock.advance_all(last_finish)
        return True

    def finish(self, session: BatchSession) -> BatchReport:
        """Summarize a drained session into its batch report.

        Raises:
            RuntimeError: if the session still has queued or resident
                sequences.
        """
        if not session.drained:
            raise RuntimeError(
                "batch session still has in-flight work; tick() it to "
                "completion first"
            )
        session.report.records.sort(
            key=lambda r: (r.arrival_s, r.request_id)
        )
        return session.report

    def run(self, requests: list[SequenceRequest],
            arrival_times: np.ndarray | None = None) -> BatchReport:
        """Serve every request; returns the batch report.

        A thin wrapper over the resumable session lifecycle
        (:meth:`begin` / :meth:`tick` / :meth:`finish`), so an
        uninterrupted run and a checkpointed-and-resumed one produce
        bitwise-identical reports.
        """
        session = self.begin(requests, arrival_times)
        while self.tick(session):
            pass
        return self.finish(session)

    # ---- checkpoint / restore --------------------------------------------------

    def checkpoint_session(self, session: BatchSession) -> dict:
        """Capture a between-ticks session as a plain-data checkpoint.

        Active sequences serialize through the engine's
        :meth:`~repro.core.engine.BaseEngine.checkpoint_sequence`
        without their (shared) clock; the session checkpoints the one
        clock itself.
        """
        body = {
            "version": SCHED_CHECKPOINT_VERSION,
            "engine": self.engine.name,
            "max_batch": self.max_batch,
            "clock": session.clock.to_state_dict(),
            "queue": [
                {"request": request.to_state_dict(), "arrival_s": arrival}
                for request, arrival in session.queue
            ],
            "active": [
                {
                    "sequence": self.engine.checkpoint_sequence(
                        entry.state, include_clock=False
                    ),
                    "arrival_s": entry.arrival_s,
                }
                for entry in session.active
            ],
            "records": [
                record.to_state_dict()
                for record in session.report.records
            ],
            "gather": session.report.gather.to_state_dict(),
        }
        body["digest"] = canonical_digest(body)
        return body

    def restore_session(self, payload: dict) -> BatchSession:
        """Rebuild a session captured by :meth:`checkpoint_session`.

        Raises:
            ValueError: for a corrupted payload (digest mismatch), a
                version-skewed checkpoint, or a scheduler/engine
                configuration that does not match the checkpoint.
        """
        version = payload.get("version")
        if version != SCHED_CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported scheduler-checkpoint version {version!r}; "
                f"this build reads version {SCHED_CHECKPOINT_VERSION}"
            )
        body = {
            key: payload[key]
            for key in ("version", "engine", "max_batch", "clock",
                        "queue", "active", "records", "gather")
        }
        digest = canonical_digest(body)
        if digest != payload.get("digest"):
            raise ValueError(
                "scheduler checkpoint is corrupted: content digest "
                f"{digest} does not match the recorded "
                f"{payload.get('digest')!r}"
            )
        if payload["engine"] != self.engine.name:
            raise ValueError(
                f"checkpoint belongs to engine {payload['engine']!r}; "
                f"this scheduler drives {self.engine.name!r}"
            )
        if payload["max_batch"] != self.max_batch:
            raise ValueError(
                "scheduler configuration mismatch: checkpoint was taken "
                f"with max_batch={payload['max_batch']}, this scheduler "
                f"runs max_batch={self.max_batch}"
            )
        clock = ResourceClock.from_state_dict(payload["clock"])
        queue = deque(
            (SequenceRequest.from_state_dict(entry["request"]),
             float(entry["arrival_s"]))
            for entry in payload["queue"]
        )
        active = [
            _ActiveSequence(
                state=self.engine.restore_sequence(
                    entry["sequence"], clock=clock
                ),
                arrival_s=float(entry["arrival_s"]),
            )
            for entry in payload["active"]
        ]
        report = BatchReport(
            engine=self.engine.name,
            max_batch=self.max_batch,
            records=[
                SequenceRecord.from_state_dict(record)
                for record in payload["records"]
            ],
            gather=GatherStats.from_state_dict(payload["gather"]),
        )
        return BatchSession(
            queue=queue, clock=clock, active=active, report=report,
        )

    # ---- internals -------------------------------------------------------------

    def _step_round(self, active: list, report: BatchReport) -> None:
        """Advance every resident sequence one unit of work, in cohorts.

        All prefill-phase sequences, whatever their prompt lengths,
        advance as one cohort in admission order through one
        :meth:`~repro.core.engine.BaseEngine.step_prefill_batch` call,
        so every member shares the round's expert kernels and swap
        uploads.  Then all decode-phase sequences advance together
        through one :meth:`~repro.core.engine.BaseEngine.step_batch`
        call.  Each active sequence steps exactly once per round, and
        the schedule is deterministic.
        """
        prefill = [e.state for e in active if e.state.phase == SEQ_PREFILL]
        decode = [e.state for e in active if e.state.phase != SEQ_PREFILL]
        if prefill:
            self.engine.step_prefill_batch(prefill, gather_stats=report.gather)
        if decode:
            self.engine.step_batch(decode, gather_stats=report.gather)

    def _admit(self, queue: deque, active: list, clock: ResourceClock) -> None:
        """Admit queued requests into the batch, FIFO in arrival order."""
        while queue and len(active) < self.max_batch:
            request, arrival = queue[0]
            if not active:
                clock.advance_all(arrival)
            elif arrival > clock.free[GPU]:
                break
            queue.popleft()
            timeline = Timeline(clock=clock)
            state = self.engine.start(request, timeline=timeline)
            active.append(_ActiveSequence(state=state, arrival_s=arrival))
            if self.events.active:
                self.events.emit(
                    SCHED_ADMIT, clock.free[GPU], seq_id=state.seq_id,
                    arrival_s=arrival, n_active=len(active),
                    n_queued=len(queue),
                )

    def _retire(self, entry: _ActiveSequence) -> SequenceRecord:
        """Capture absolute times, then finalize the sequence."""
        state = entry.state
        timeline = state.timeline
        service_start = min(timeline.starts)
        first_token = state.prefill_time_s
        finish = max(timeline.ends)
        result = self.engine.finish(state)
        if self.events.active:
            self.events.emit(
                SCHED_RETIRE, finish, seq_id=state.seq_id,
                finish_s=finish,
                n_generated=result.stats.n_generated,
            )
        return SequenceRecord(
            request_id=state.seq_id,
            arrival_s=entry.arrival_s,
            start_s=service_start,
            first_token_s=first_token,
            finish_s=finish,
            n_prompt_tokens=result.stats.n_prompt_tokens,
            n_generated=result.stats.n_generated,
            energy_j=result.stats.energy.total_j,
            result=result,
        )
