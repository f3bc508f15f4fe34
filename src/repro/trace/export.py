"""Trace and timeline serialization.

Two formats:

- a plain JSON dump of routing events and schedule ops, for offline
  analysis and regression archiving;
- the Chrome trace-event format (``chrome://tracing`` / Perfetto), so a
  simulated DAOP schedule can be inspected in the same UI engineers use
  for real GPU traces.
"""

from __future__ import annotations

import json

from repro.hardware.timeline import RESOURCES, Timeline
from repro.trace.recorder import ActivationTrace

_RESOURCE_TIDS = {resource: i for i, resource in enumerate(RESOURCES)}


def timeline_to_dict(timeline: Timeline) -> dict:
    """Plain-data representation of a timeline."""
    return {
        "makespan_s": timeline.makespan,
        "ops": [
            {
                "index": op.index,
                "resource": op.resource,
                "start_s": op.start,
                "end_s": op.end,
                "duration_s": op.duration,
                "label": op.label,
                "kind": op.kind,
            }
            for op in timeline.ops
        ],
    }


def trace_to_dict(trace: ActivationTrace) -> dict:
    """Plain-data representation of a routing trace (its checkpoint
    payload)."""
    return trace.to_state_dict()


def timeline_to_chrome_trace(timeline: Timeline,
                             process_name: str = "repro") -> str:
    """Serialize a timeline as a Chrome trace-event JSON string.

    Each resource becomes a thread; each op becomes a complete ("X")
    event with microsecond timestamps.  Load the output in
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": process_name},
        }
    ]
    for resource, tid in _RESOURCE_TIDS.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": resource},
        })
    for op in timeline.ops:
        if op.duration <= 0:
            continue
        events.append({
            "name": op.label or op.kind or f"op{op.index}",
            "cat": op.kind or "op",
            "ph": "X",
            "pid": 1,
            "tid": _RESOURCE_TIDS[op.resource],
            "ts": op.start * 1e6,
            "dur": op.duration * 1e6,
        })
    return json.dumps({"traceEvents": events})


def save_run(path: str, timeline: Timeline,
             trace: ActivationTrace | None = None) -> None:
    """Write a JSON archive of one generation's schedule (and trace)."""
    payload = {"timeline": timeline_to_dict(timeline)}
    if trace is not None:
        payload["trace"] = trace_to_dict(trace)
    with open(path, "w") as handle:
        json.dump(payload, handle)
