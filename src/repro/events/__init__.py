"""Typed simulation event bus (live observability for every layer).

Long-horizon sweeps need to be *watchable*: engines, the continuous-batch
scheduler, and both simulators emit structured events through an
:class:`EventBus` that callers subscribe to — a live console view
(``repro watch``), a JSONL log (:class:`JsonlEventWriter`), or any ad-hoc
callback.  Emission is instance-scoped (each engine/scheduler/simulator
owns its bus — no module globals, per lint rule STL001) and free when
nothing subscribes, so the hot step path pays one attribute check.

Events are plain data: a :class:`SimEvent` carries a registered ``kind``,
the simulated time, a per-bus monotonic emission index, and a payload
dict of JSON-compatible values.  The stream is deterministic given the
workload — two identical runs emit identical event streams.
"""

from repro.events.bus import (
    EVENT_KINDS,
    CHECKPOINT_RESTORE,
    CHECKPOINT_SAVE,
    CLUSTER_ARRIVAL,
    CLUSTER_COMPLETION,
    CLUSTER_DISPATCH,
    CLUSTER_REJECT,
    ENGINE_STEP,
    EventBus,
    JsonlEventWriter,
    SCHED_ADMIT,
    SCHED_RETIRE,
    SEQUENCE_FINISH,
    SEQUENCE_START,
    SimEvent,
    format_event,
)

__all__ = [
    "EVENT_KINDS",
    "CHECKPOINT_RESTORE",
    "CHECKPOINT_SAVE",
    "CLUSTER_ARRIVAL",
    "CLUSTER_COMPLETION",
    "CLUSTER_DISPATCH",
    "CLUSTER_REJECT",
    "ENGINE_STEP",
    "EventBus",
    "JsonlEventWriter",
    "SCHED_ADMIT",
    "SCHED_RETIRE",
    "SEQUENCE_FINISH",
    "SEQUENCE_START",
    "SimEvent",
    "format_event",
]
