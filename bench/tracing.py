"""Span tracing of the program's layers, from outside the program.

The traced rep installs timing wrappers at class level around each
layer's public functions (:data:`LAYER_FUNCTIONS`) and removes them when
the rep ends, so untraced reps run the unmodified code.  Every wrapped
call is one span.  Spans keep a parent stack: a span's self time is its
duration minus the time its child spans cover, so the per-layer self
times add up to the traced wall time spent inside any layer.

Aggregates (calls and self time per function) cover every span.  Raw
span events, for the Chrome trace, are kept for every span of the
coarse layers (:data:`COARSE_LAYERS`) but only for the first
:data:`MAX_EVENTS` spans overall of the fine-grained ones, so that a
traced rep of a large workload stays small in memory and on disk.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

from repro.cluster import ClusterSimulator
from repro.core.engine import BaseEngine
from repro.hardware.timeline import ResourceClock, Timeline
from repro.model.moe_block import MoEBlock
from repro.model.transformer import MoETransformer
from repro.perf import TensorCache
from repro.sched import ContinuousBatchScheduler

#: Layer name -> (class, public functions wrapped in the traced rep).
LAYER_FUNCTIONS = {
    "model": (
        (MoEBlock, ("attention_part", "ffn_normed", "gate_logits",
                    "route_from_logits", "route", "expert_forward",
                    "expert_forward_rows", "combine", "forward")),
        (MoETransformer, ("embed", "lm_logits", "lm_logits_rows",
                          "forward_exact")),
    ),
    "perf": ((TensorCache, ("key", "get", "put")),),
    "hardware": (
        (Timeline, ("add", "barrier", "rebase")),
        (ResourceClock, ("hold", "advance_all")),
    ),
    "core": ((BaseEngine, ("start", "step", "step_batch",
                           "step_prefill_batch", "finish", "generate")),),
    "sched": ((ContinuousBatchScheduler, ("begin", "tick", "finish",
                                          "run")),),
    "cluster": ((ClusterSimulator, ("begin_session", "tick",
                                    "finish_session", "run_requests")),),
}

#: Raw span events kept for the Chrome trace (aggregates cover all).
MAX_EVENTS = 100_000

#: Layers whose spans are all kept: few calls, whole-request structure.
COARSE_LAYERS = ("core", "sched", "cluster")

_now = time.perf_counter


def _seq_ids(args) -> list:
    """Sequence ids named by a call's arguments (states or requests)."""
    ids = []
    for arg in args:
        if hasattr(arg, "seq_id"):
            ids.append(int(arg.seq_id))
        elif isinstance(arg, (list, tuple)) and arg \
                and hasattr(arg[0], "seq_id"):
            ids.extend(int(item.seq_id) for item in arg)
    return ids


def _expert_rows(args, kwargs) -> int:
    """Rows one ``MoEBlock.expert_forward(expert, h_att, token_idx)``
    call feeds through the expert."""
    h_att = args[2] if len(args) > 2 else kwargs["h_att"]
    token_idx = args[3] if len(args) > 3 else kwargs.get("token_idx")
    if token_idx is not None:
        return len(token_idx)
    return int(np.atleast_2d(h_att).shape[0])


def _key_bytes(args) -> int:
    """Bytes one ``TensorCache.key(*parts)`` call digests."""
    total = 0
    for part in args:
        if isinstance(part, np.ndarray):
            total += part.nbytes
        elif isinstance(part, (bytes, bytearray, str)):
            total += len(part)
    return total


class Tracer:
    """Records spans of the wrapped layer functions while installed.

    Use as a context manager around exactly one rep::

        with Tracer() as tracer:
            workload.rep(ctx, inputs)

    Attributes:
        calls: ``"layer.Class.func"`` -> number of calls.
        self_s: ``"layer.Class.func"`` -> summed self time in seconds.
        true_returns: ``"layer.Class.func"`` -> calls that returned
            ``True`` (productive ``tick`` calls).
        expert_rows: rows fed through ``MoEBlock.expert_forward``.
        key_bytes: bytes digested by ``TensorCache.key``.
        results: ``(engine name, GenerationResult)`` of every
            ``BaseEngine.finish`` call.
        batch_reports: every ``ContinuousBatchScheduler.finish`` report.
        events: raw spans ``(label, start, duration, seq ids)``.
    """

    def __init__(self) -> None:
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.true_returns: dict = defaultdict(int)
        self.expert_rows = 0
        self.key_bytes = 0
        self.results: list = []
        self.batch_reports: list = []
        self.events: list = []
        self._stack: list = []
        self._originals: list = []
        self._t0 = 0.0

    # ---- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for layer, entries in LAYER_FUNCTIONS.items():
            for cls, names in entries:
                for name in names:
                    original = cls.__dict__[name]
                    self._originals.append((cls, name, original))
                    label = f"{layer}.{cls.__name__}.{name}"
                    if isinstance(original, staticmethod):
                        wrapped = staticmethod(
                            self._wrap(label, original.__func__, False)
                        )
                    else:
                        wrapped = self._wrap(label, original, True)
                    setattr(cls, name, wrapped)
        self._t0 = _now()
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self._originals):
            setattr(cls, name, original)
        self._originals.clear()

    def _wrap(self, label: str, fn, bound: bool):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        events = self.events
        counted = label.endswith((".expert_forward", ".key"))
        captured = label in ("core.BaseEngine.finish",
                             "sched.ContinuousBatchScheduler.finish")
        ticks = label.endswith(".tick")
        coarse = label.startswith(COARSE_LAYERS)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted:
                if label.endswith(".key"):
                    self.key_bytes += _key_bytes(args)
                else:
                    self.expert_rows += _expert_rows(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _now() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                calls[label] += 1
                self_s[label] += duration - frame[0]
                if coarse or len(events) < MAX_EVENTS:
                    ids = _seq_ids(args[1:] if bound else args)
                    events.append((label, start - self._t0, duration, ids))
            if ticks and result is True:
                self.true_returns[label] += 1
            if captured:
                if label.startswith("core."):
                    self.results.append((args[0].name, result))
                else:
                    self.batch_reports.append(result)
            return result

        return wrapper

    # ---- reporting ---------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        """Summed self time of every wrapped function of one layer."""
        prefix = layer + "."
        return sum((t for label, t in self.self_s.items()
                    if label.startswith(prefix)), 0.0)

    def layer_calls(self, layer: str, names=None) -> int:
        """Calls into one layer, optionally only of the named functions."""
        prefix = layer + "."
        return sum(
            n for label, n in self.calls.items()
            if label.startswith(prefix)
            and (names is None or label.rsplit(".", 1)[1] in names)
        )

    def true_ticks(self, layer: str) -> int:
        """``tick`` calls of one layer that did work (returned True)."""
        return sum(n for label, n in self.true_returns.items()
                   if label.startswith(layer + "."))

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Write the kept span events as a Chrome trace (JSON object form).

        Open the file in ``chrome://tracing`` or https://ui.perfetto.dev.
        """
        trace_events = []
        for label, start, duration, ids in sorted(self.events,
                                                  key=lambda e: e[1]):
            event = {
                "name": label.split(".", 1)[1],
                "cat": label.split(".", 1)[0],
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            if ids:
                event["args"] = {"seq_ids": ids}
            trace_events.append(event)
        payload = {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                **metadata,
                "spans": sum(self.calls.values()),
                "spans_kept": len(self.events),
            },
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
