"""The event bus, its registered event kinds, and stock subscribers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Engine lifecycle: a sequence entered service / advanced one unit of
#: work (a prefill pass or one decode token) / produced its result.
SEQUENCE_START = "sequence_start"
ENGINE_STEP = "engine_step"
SEQUENCE_FINISH = "sequence_finish"

#: Scheduler lifecycle: a request was admitted into the resident batch /
#: a finished sequence retired with its service record.
SCHED_ADMIT = "sched_admit"
SCHED_RETIRE = "sched_retire"

#: Cluster discrete-event loop: arrival routed, arrival rejected,
#: a gang dispatched on a replica, a gang member completed.
CLUSTER_ARRIVAL = "cluster_arrival"
CLUSTER_REJECT = "cluster_reject"
CLUSTER_DISPATCH = "cluster_dispatch"
CLUSTER_COMPLETION = "cluster_completion"

#: Checkpoint lifecycle (emitted by the simulators' save/restore paths).
CHECKPOINT_SAVE = "checkpoint_save"
CHECKPOINT_RESTORE = "checkpoint_restore"

EVENT_KINDS = (
    SEQUENCE_START,
    ENGINE_STEP,
    SEQUENCE_FINISH,
    SCHED_ADMIT,
    SCHED_RETIRE,
    CLUSTER_ARRIVAL,
    CLUSTER_REJECT,
    CLUSTER_DISPATCH,
    CLUSTER_COMPLETION,
    CHECKPOINT_SAVE,
    CHECKPOINT_RESTORE,
)


@dataclass(frozen=True)
class SimEvent:
    """One emitted simulation event (plain data, JSON-compatible).

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        time_s: simulated time the event describes.
        seq: per-bus monotonic emission index (ties in ``time_s`` keep
            emission order).
        payload: kind-specific fields (seq_id, phase, replica, ...).
    """

    kind: str
    time_s: float
    seq: int
    payload: dict

    def to_dict(self) -> dict:
        """Flat JSON-compatible rendering (JSONL logs)."""
        out = {"kind": self.kind, "time_s": self.time_s, "seq": self.seq}
        out.update(self.payload)
        return out


@dataclass
class EventBus:
    """Instance-scoped publish/subscribe fan-out for :class:`SimEvent`.

    Subscribers are called synchronously in subscription order, so a
    deterministic simulation stays deterministic under observation.
    """

    _subscribers: list = field(default_factory=list)
    _next_seq: int = 0

    def subscribe(self, callback, kinds=None):
        """Register ``callback(event)``; returns it for unsubscribing.

        Args:
            callback: called with each matching :class:`SimEvent`.
            kinds: iterable of event kinds to receive; ``None`` means
                every kind.

        Raises:
            ValueError: for an unregistered event kind.
        """
        if kinds is not None:
            kinds = frozenset(kinds)
            unknown = kinds - frozenset(EVENT_KINDS)
            if unknown:
                raise ValueError(
                    f"unknown event kind(s) {sorted(unknown)}; "
                    f"registered kinds: {list(EVENT_KINDS)}"
                )
        self._subscribers.append((callback, kinds))
        return callback

    def unsubscribe(self, callback) -> None:
        """Remove every subscription of ``callback`` (no-op if absent)."""
        self._subscribers = [
            entry for entry in self._subscribers if entry[0] is not callback
        ]

    @property
    def active(self) -> bool:
        """Whether any subscriber is attached (hot-path fast check)."""
        return bool(self._subscribers)

    def emit(self, kind: str, time_s: float, **payload) -> None:
        """Publish one event to every matching subscriber.

        A bus with no subscribers returns immediately without building
        the event, so unobserved simulations pay (almost) nothing.

        Raises:
            ValueError: for an unregistered event kind.
        """
        if not self._subscribers:
            return
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; registered kinds: "
                f"{list(EVENT_KINDS)}"
            )
        event = SimEvent(
            kind=kind, time_s=float(time_s), seq=self._next_seq,
            payload=payload,
        )
        self._next_seq += 1
        for callback, kinds in self._subscribers:
            if kinds is None or kind in kinds:
                callback(event)


class JsonlEventWriter:
    """Subscriber that appends one JSON line per event to a file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "w")
        self.n_written = 0

    def __call__(self, event: SimEvent) -> None:
        self._handle.write(json.dumps(event.to_dict(), sort_keys=True))
        self._handle.write("\n")
        self.n_written += 1

    def close(self) -> None:
        """Flush and close the log file."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlEventWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def format_event(event: SimEvent) -> str:
    """One-line human rendering of an event (``repro watch``)."""
    detail = " ".join(
        f"{key}={event.payload[key]}" for key in sorted(event.payload)
    )
    return f"[{event.time_s:10.4f}s] {event.kind:<18} {detail}"
