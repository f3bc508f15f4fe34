"""Event core of the multi-replica serving simulator.

The cluster simulator is a deterministic discrete-event simulation over
simulated seconds: every state change is an :class:`Event` popped from a
binary heap ordered by ``(time, submission sequence)``, so ties resolve
in submission order and two runs with identical inputs replay the exact
same event sequence.  This module holds the engine-agnostic pieces — the
event records, the heap/clock, per-replica FIFO queues, and the
pre-computed per-request metadata the routing policies consume — while
:mod:`repro.cluster.simulator` binds them to real inference engines.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.model.serialization import decode_array, encode_array

ARRIVAL = "arrival"
DISPATCH = "dispatch"
COMPLETION = "completion"

EVENT_KINDS = (ARRIVAL, DISPATCH, COMPLETION)


@dataclass(frozen=True)
class Event:
    """One scheduled simulator event.

    Attributes:
        time: firing time in simulated seconds.
        seq: submission-order tiebreaker (events at equal times fire in
            submission order).
        kind: one of ``arrival`` / ``dispatch`` / ``completion``.
        request_id: the request the event concerns (-1 for pure
            replica-side events).
        replica: the replica the event concerns (-1 for arrivals, which
            are routed when the event fires).
    """

    time: float
    seq: int
    kind: str
    request_id: int = -1
    replica: int = -1

    def to_state_dict(self) -> dict:
        """Serialize the event for a checkpoint."""
        return {
            "time": self.time,
            "seq": self.seq,
            "kind": self.kind,
            "request_id": self.request_id,
            "replica": self.replica,
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "Event":
        """Rebuild an event captured by :meth:`to_state_dict`."""
        return cls(
            time=float(payload["time"]),
            seq=int(payload["seq"]),
            kind=payload["kind"],
            request_id=int(payload["request_id"]),
            replica=int(payload["replica"]),
        )


class EventQueue:
    """Min-heap of events keyed on ``(time, seq)`` with a monotone clock."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """Simulated time of the most recently popped event."""
        return self._now

    def push(self, time: float, kind: str, request_id: int = -1,
             replica: int = -1) -> Event:
        """Schedule an event; returns the created record."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"kind must be one of {EVENT_KINDS}")
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time} before now={self._now}"
            )
        event = Event(time=float(time), seq=self._seq, kind=kind,
                      request_id=request_id, replica=replica)
        self._seq += 1
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        _, _, event = heapq.heappop(self._heap)
        self._now = event.time
        return event

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def to_state_dict(self) -> dict:
        """Serialize the pending events and the clock for a checkpoint.

        Pending events are written sorted by ``(time, seq)`` so the
        serialized form is canonical regardless of internal heap layout.
        """
        ordered = sorted(self._heap, key=lambda entry: (entry[0], entry[1]))
        return {
            "now": self._now,
            "seq": self._seq,
            "events": [event.to_state_dict() for _, _, event in ordered],
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "EventQueue":
        """Rebuild the queue captured by :meth:`to_state_dict`."""
        queue = cls()
        queue._now = float(payload["now"])
        queue._seq = int(payload["seq"])
        for entry in payload["events"]:
            event = Event.from_state_dict(entry)
            heapq.heappush(queue._heap, (event.time, event.seq, event))
        return queue


@dataclass(frozen=True)
class RequestInfo:
    """Immutable per-request metadata known at arrival time.

    Attributes:
        request_id: arrival-order identifier.
        arrival_s: arrival time in simulated seconds.
        sample_idx: payload key of the request's tokens: the id of the
            first request with the same content (prompt, forced tokens
            and decode length).  Requests sharing a key serve identical
            tokens.
        fingerprint: per-(block, expert) prefill activation counts of the
            request's prompt (see
            :func:`repro.cluster.simulator.prefill_fingerprint`), used by
            cache-affinity routing and the warm-cache hit metric.
    """

    request_id: int
    arrival_s: float
    sample_idx: int
    fingerprint: np.ndarray = field(repr=False, default=None)

    def to_state_dict(self) -> dict:
        """Serialize the request metadata (fingerprint bitwise)."""
        return {
            "request_id": self.request_id,
            "arrival_s": self.arrival_s,
            "sample_idx": self.sample_idx,
            "fingerprint": encode_array(
                np.asarray(self.fingerprint, dtype=np.float64)
            ),
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "RequestInfo":
        """Rebuild the metadata captured by :meth:`to_state_dict`."""
        return cls(
            request_id=int(payload["request_id"]),
            arrival_s=float(payload["arrival_s"]),
            sample_idx=int(payload["sample_idx"]),
            fingerprint=decode_array(payload["fingerprint"]),
        )


@dataclass
class ReplicaState:
    """Queueing state of one engine replica.

    Attributes:
        queue: FIFO of waiting request ids (bounded by admission control).
        in_service: id of the request (for a gang dispatch: the first
            request of the gang) currently being served, or None if idle.
        in_flight: number of gang members still running; 0 outside gang
            dispatch, where ``in_service`` alone tracks occupancy.
        busy_until: completion time (simulated seconds) of the in-flight
            work; meaningful only while ``in_service`` is set.
        busy_time_s: cumulative service time in simulated seconds.
        n_served: completed request count.
    """

    queue: deque = field(default_factory=deque)
    in_service: int | None = None
    in_flight: int = 0
    busy_until: float = 0.0
    busy_time_s: float = 0.0
    n_served: int = 0

    @property
    def idle(self) -> bool:
        """Whether no request is currently in service."""
        return self.in_service is None and self.in_flight == 0

    @property
    def backlog(self) -> int:
        """Waiting plus in-service request count (the JSQ load signal)."""
        active = max(self.in_flight, 0 if self.in_service is None else 1)
        return len(self.queue) + active

    def to_state_dict(self) -> dict:
        """Serialize the replica's queueing state for a checkpoint."""
        return {
            "queue": [int(request_id) for request_id in self.queue],
            "in_service": self.in_service,
            "in_flight": self.in_flight,
            "busy_until": self.busy_until,
            "busy_time_s": self.busy_time_s,
            "n_served": self.n_served,
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "ReplicaState":
        """Rebuild the state captured by :meth:`to_state_dict`."""
        in_service = payload["in_service"]
        return cls(
            queue=deque(int(r) for r in payload["queue"]),
            in_service=None if in_service is None else int(in_service),
            in_flight=int(payload["in_flight"]),
            busy_until=float(payload["busy_until"]),
            busy_time_s=float(payload["busy_time_s"]),
            n_served=int(payload["n_served"]),
        )
