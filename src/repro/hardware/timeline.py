"""Event-driven execution timeline for the two-device platform.

Engines submit ops to named resources (``gpu``, ``cpu``, ``h2d``, ``d2h``);
each resource executes its ops in submission order, and an op additionally
waits for its dependencies.  This is deterministic list scheduling, which
matches how a real engine enqueues kernels on CUDA streams, CPU worker
pools, and copy engines.

The timeline records every op with its start/end time, so benchmarks can
compute makespans, per-resource utilization, and Gantt-style renderings
(paper Fig. 8), and the energy model can integrate busy time.

Ops are stored as typed columns, one row per op: ``durations``,
``starts`` and ``ends`` are ``array('d')``; ``resources``, ``kinds`` and
``labels`` are lists of interned strings; and the dependency indices of
every op are flattened into one ``array('q')`` (``dep_flat``) cut by an
offsets column (``dep_offsets``).  A row costs ~64 bytes where an object
per op cost ~260.  An :class:`Op` is a two-slot ``(timeline, index)``
handle that reads its row, and ``Timeline.ops`` is a read-only sequence
of such handles.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from sys import intern

GPU = "gpu"
CPU = "cpu"
H2D = "h2d"
D2H = "d2h"

RESOURCES = (GPU, CPU, H2D, D2H)

#: Field order of one op's row (its equality and ``repr``).
_ROW_FIELDS = ("index", "resource", "duration", "start", "end", "label",
               "kind", "dep_indices")


def _column(name: str, doc: str) -> property:
    """Read/write property on the op's row of one timeline column."""

    def get(op: "Op"):
        return getattr(op.timeline, name)[op.index]

    def put(op: "Op", value) -> None:
        getattr(op.timeline, name)[op.index] = value

    return property(get, put, doc=doc)


class Op:
    """Handle on one scheduled operation: row ``index`` of ``timeline``.

    The attributes read the row, so a held handle sees in-place edits
    such as :meth:`Timeline.rebase`.  Assigning ``resource``,
    ``duration``, ``start``, ``end``, ``label`` or ``kind`` writes the
    row (the audits' planted-defect tests corrupt schedules this way);
    ``dep_indices`` is read-only.  Two handles are equal when their rows
    are, whichever timeline holds them.

    Attributes:
        timeline: the :class:`Timeline` whose columns hold the row.
        index: submission-order identifier within the timeline.
        resource: executing lane (``gpu``/``cpu``/``h2d``/``d2h``).
        duration: busy time charged to the lane, in simulated seconds.
        start: start time in simulated seconds.
        end: completion time in simulated seconds.
        label: human-readable op label (Gantt/Chrome-trace rendering).
        kind: op category used by analysis and energy attribution.
        dep_indices: indices of the ops this op waited on (the explicit
            dependency edges given at submission; lane FIFO ordering is
            implicit and not recorded here).
    """

    __slots__ = ("timeline", "index")

    def __init__(self, timeline: "Timeline", index: int) -> None:
        self.timeline = timeline
        self.index = index

    resource = _column("resources", "Executing lane.")
    duration = _column("durations", "Busy time charged to the lane (s).")
    start = _column("starts", "Start time (simulated s).")
    end = _column("ends", "Completion time (simulated s).")
    label = _column("labels", "Human-readable op label.")
    kind = _column("kinds", "Op category.")

    @property
    def dep_indices(self) -> tuple[int, ...]:
        """Indices of the ops this op waited on."""
        offsets = self.timeline.dep_offsets
        return tuple(self.timeline.dep_flat[
            offsets[self.index]:offsets[self.index + 1]
        ])

    def _row(self) -> tuple:
        """The op's values, in :data:`_ROW_FIELDS` order."""
        return (self.index, self.resource, self.duration, self.start,
                self.end, self.label, self.kind, self.dep_indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Op):
            return NotImplemented
        return self._row() == other._row()

    def __hash__(self) -> int:
        return self.index

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={value!r}"
                           for name, value in zip(_ROW_FIELDS, self._row()))
        return f"Op({values})"


class OpsView(Sequence):
    """Read-only sequence of a timeline's op handles (``Timeline.ops``).

    Supports ``len``, iteration and int (also negative) indexing; a slice
    returns a list of handles.
    """

    __slots__ = ("_timeline",)

    def __init__(self, timeline: "Timeline") -> None:
        self._timeline = timeline

    def __len__(self) -> int:
        return len(self._timeline.starts)

    def __getitem__(self, key):
        timeline = self._timeline
        n = len(timeline.starts)
        if isinstance(key, slice):
            return [Op(timeline, i) for i in range(*key.indices(n))]
        index = operator.index(key)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("op index out of range")
        return Op(timeline, index)

    def __iter__(self):
        timeline = self._timeline
        return (Op(timeline, i) for i in range(len(timeline.starts)))


@dataclass
class ResourceClock:
    """Per-lane availability state, shareable between timelines.

    A :class:`Timeline` resolves op start times against one of these.
    Each timeline owns a private clock by default; handing the *same*
    clock to several timelines makes their sequences contend for the
    same physical lanes (the continuous-batching regime): every ``add``
    call, whichever timeline it lands in, advances the shared lane in
    global submission order, exactly like concurrent sequences enqueuing
    onto one CUDA stream / copy engine.
    """

    free: dict[str, float] = field(
        default_factory=lambda: {r: 0.0 for r in RESOURCES}
    )

    def advance_all(self, t: float) -> None:
        """Fast-forward every idle lane to at least ``t``.

        Used by schedulers to model wall-clock gaps between requests
        (the system sits idle until the next arrival); lanes already
        past ``t`` are left untouched, so time never moves backwards.
        """
        for resource in self.free:
            if self.free[resource] < t:
                self.free[resource] = t

    def hold(self, resource: str, t: float) -> None:
        """Hold one lane until at least ``t`` (forward-only).

        A gathered cross-sequence kernel starts only when every
        participant's inputs are ready; the engine models that by
        holding the lane to the group's dependency barrier and then
        adding each participant's slice op.  Dependencies stay
        timeline-local (an op's ``dep_indices`` index its own
        timeline), so the cross-sequence coupling flows through the
        shared clock — never through cross-timeline dependency edges,
        which :meth:`Timeline.add` refuses (an index names a row of its
        own timeline only).  A lane already past ``t`` is left
        untouched.

        Raises:
            ValueError: for an unknown resource name.
        """
        if resource not in self.free:
            raise ValueError(f"unknown resource {resource!r}")
        if self.free[resource] < t:
            self.free[resource] = t

    @property
    def horizon(self) -> float:
        """Latest lane-availability time across all resources."""
        return max(self.free.values())

    def to_state_dict(self) -> dict:
        """Serialize the per-lane availability times."""
        return {"free": dict(self.free)}

    @classmethod
    def from_state_dict(cls, payload: dict) -> "ResourceClock":
        """Rebuild a clock captured by :meth:`to_state_dict`."""
        clock = cls()
        for resource, t in payload["free"].items():
            if resource not in clock.free:
                raise ValueError(f"unknown resource {resource!r}")
            clock.free[resource] = float(t)
        return clock


class Timeline:
    """Accumulates ops and resolves their start/end times on submission.

    Attributes:
        clock: lane-availability state the ops are resolved against
            (private by default, or shared between timelines).
        durations: per-op busy time, ``array('d')``.
        starts: per-op start time, ``array('d')``.
        ends: per-op completion time, ``array('d')``.
        resources: per-op lane name (interned strings).
        kinds: per-op category (interned strings).
        labels: per-op label (interned strings).
        dep_offsets: ``array('q')`` of ``len(ops) + 1`` offsets; op
            ``i``'s dependency indices are
            ``dep_flat[dep_offsets[i]:dep_offsets[i + 1]]``.
        dep_flat: every op's dependency indices, concatenated.
    """

    def __init__(self, clock: ResourceClock | None = None) -> None:
        self.clock = ResourceClock() if clock is None else clock
        self.durations = array("d")
        self.starts = array("d")
        self.ends = array("d")
        self.resources: list[str] = []
        self.kinds: list[str] = []
        self.labels: list[str] = []
        self.dep_offsets = array("q", [0])
        self.dep_flat = array("q")

    @property
    def ops(self) -> OpsView:
        """Read-only sequence of the recorded ops, in submission order."""
        return OpsView(self)

    def add(self, resource: str, duration: float,
            deps: list[Op] | None = None, label: str = "",
            kind: str = "") -> Op:
        """Schedule an op; returns its handle with resolved times.

        Raises:
            ValueError: for an unknown resource, a negative duration, or
                a dependency recorded in another timeline (dependencies
                are timeline-local; sequences couple through a shared
                :class:`ResourceClock`, see :meth:`ResourceClock.hold`).
        """
        free = self.clock.free
        ready = free.get(resource)
        if ready is None:
            raise ValueError(f"unknown resource {resource!r}")
        if duration < 0:
            raise ValueError("duration must be non-negative")
        flat = self.dep_flat
        if deps:
            ends = self.ends
            for dep in deps:
                if dep.timeline is not self:
                    del flat[self.dep_offsets[-1]:]
                    raise ValueError(
                        f"dependency op {dep.index} was recorded in another "
                        "timeline; dependencies must be timeline-local"
                    )
                index = dep.index
                if ends[index] > ready:
                    ready = ends[index]
                flat.append(index)
        end = ready + duration
        self.durations.append(duration)
        self.starts.append(ready)
        self.ends.append(end)
        self.resources.append(intern(resource))
        self.kinds.append(intern(kind))
        self.labels.append(intern(label))
        self.dep_offsets.append(len(flat))
        free[resource] = end
        return Op(self, len(self.ends) - 1)

    def rebase(self, t0: float) -> None:
        """Shift every recorded op ``t0`` seconds toward zero.

        A sequence served on a *shared* clock records absolute lane
        times; rebasing by its service-start time turns the record into
        the same sequence-local schedule a solo run would have produced
        (op 0 starts at 0, ``makespan`` is the service duration), which
        is what :class:`GenerationStats` and the energy integral expect.
        Only a finished timeline may be rebased -- the shared clock is
        deliberately left untouched, so adding ops afterwards would
        desynchronize the record.  The columns shift, so every held
        handle (a sequence's ``last_op``) reads rebased times.

        Raises:
            ValueError: if ``t0`` exceeds the earliest op start (a shift
                that would move an op before time zero).
        """
        if t0 == 0.0 or not self.starts:
            return
        first = min(self.starts)
        if t0 > first + 1e-12:
            raise ValueError(
                f"cannot rebase by {t0}: earliest op starts at {first}"
            )
        self.starts = array("d", (start - t0 for start in self.starts))
        self.ends = array("d", (end - t0 for end in self.ends))

    def barrier(self, deps: list[Op]) -> float:
        """Latest finish time among ``deps`` (no op is scheduled)."""
        if not deps:
            return 0.0
        return max(d.end for d in deps)

    def to_state_dict(self, include_clock: bool = True) -> dict:
        """Serialize the recorded ops (and, optionally, the clock).

        A sequence on a *shared* clock serializes ``include_clock=False``
        — the owning scheduler checkpoints the clock once and hands it
        back to every restored timeline, preserving the lane coupling.
        """
        offsets, flat = self.dep_offsets, self.dep_flat
        payload = {"ops": [
            {
                "index": i,
                "resource": resource,
                "duration": duration,
                "start": start,
                "end": end,
                "label": label,
                "kind": kind,
                "dep_indices": flat[offsets[i]:offsets[i + 1]].tolist(),
            }
            for i, (resource, duration, start, end, label, kind)
            in enumerate(zip(self.resources, self.durations, self.starts,
                             self.ends, self.labels, self.kinds))
        ]}
        if include_clock:
            payload["clock"] = self.clock.to_state_dict()
        return payload

    @classmethod
    def from_state_dict(cls, payload: dict,
                        clock: ResourceClock | None = None) -> "Timeline":
        """Rebuild a timeline captured by :meth:`to_state_dict`.

        Args:
            payload: the captured state.
            clock: externally restored shared clock; ``None`` restores
                the private clock stored in the payload (or a fresh one
                if the payload carries none).

        Raises:
            ValueError: if an op's ``index`` is not its position.
        """
        if clock is None:
            clock = (ResourceClock.from_state_dict(payload["clock"])
                     if "clock" in payload else ResourceClock())
        timeline = cls(clock=clock)
        for position, op in enumerate(payload["ops"]):
            if int(op["index"]) != position:
                raise ValueError(
                    f"op at position {position} carries index {op['index']}"
                )
            timeline.durations.append(op["duration"])
            timeline.starts.append(op["start"])
            timeline.ends.append(op["end"])
            timeline.resources.append(intern(op["resource"]))
            timeline.kinds.append(intern(op["kind"]))
            timeline.labels.append(intern(op["label"]))
            timeline.dep_flat.extend(int(i) for i in op["dep_indices"])
            timeline.dep_offsets.append(len(timeline.dep_flat))
        return timeline

    # ---- statistics ----------------------------------------------------------

    @property
    def makespan(self) -> float:
        """End time of the last-finishing op."""
        return max(self.ends, default=0.0)

    def busy_time(self, resource: str) -> float:
        """Total execution time charged to one resource."""
        return sum(duration for duration, lane
                   in zip(self.durations, self.resources) if lane == resource)

    def utilization(self, resource: str) -> float:
        """Busy fraction of one resource over the makespan."""
        span = self.makespan
        if span <= 0:
            return 0.0
        return self.busy_time(resource) / span

    def ops_on(self, resource: str) -> list[Op]:
        """All ops scheduled on one resource, in submission order."""
        return [Op(self, i) for i, lane in enumerate(self.resources)
                if lane == resource]

    def window(self, t0: float, t1: float) -> list[Op]:
        """Ops overlapping the time window ``[t0, t1)``."""
        return [Op(self, i)
                for i, (start, end) in enumerate(zip(self.starts, self.ends))
                if start < t1 and end > t0]

    def render_gantt(self, t0: float = 0.0, t1: float | None = None,
                     width: int = 100) -> str:
        """ASCII Gantt chart of the window (used for paper Fig. 8)."""
        if t1 is None:
            t1 = self.makespan
        span = max(t1 - t0, 1e-12)
        lines = [f"time window: [{t0 * 1e3:.3f} ms, {t1 * 1e3:.3f} ms]"]
        for resource in RESOURCES:
            row = [" "] * width
            for op in self.ops_on(resource):
                if op.end <= t0 or op.start >= t1:
                    continue
                lo = int((max(op.start, t0) - t0) / span * width)
                hi = max(lo + 1, int((min(op.end, t1) - t0) / span * width))
                glyph = (op.label[:1] or op.kind[:1] or "#").upper()
                for i in range(lo, min(hi, width)):
                    row[i] = glyph
            lines.append(f"{resource:>4} |{''.join(row)}|")
        return "\n".join(lines)
