"""Event-driven execution timeline for the two-device platform.

Engines submit ops to named resources (``gpu``, ``cpu``, ``h2d``, ``d2h``);
each resource executes its ops in submission order, and an op additionally
waits for its dependencies.  This is deterministic list scheduling, which
matches how a real engine enqueues kernels on CUDA streams, CPU worker
pools, and copy engines.

The timeline records every op with its start/end time, so benchmarks can
compute makespans, per-resource utilization, and Gantt-style renderings
(paper Fig. 8), and the energy model can integrate busy time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GPU = "gpu"
CPU = "cpu"
H2D = "h2d"
D2H = "d2h"

RESOURCES = (GPU, CPU, H2D, D2H)


@dataclass
class Op:
    """One scheduled operation on a resource.

    Attributes:
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

    index: int
    resource: str
    duration: float
    start: float
    end: float
    label: str = ""
    kind: str = ""
    dep_indices: tuple[int, ...] = ()

    def __hash__(self) -> int:
        return self.index

    def to_state_dict(self) -> dict:
        """Serialize the op for a checkpoint (all plain data)."""
        return {
            "index": self.index,
            "resource": self.resource,
            "duration": self.duration,
            "start": self.start,
            "end": self.end,
            "label": self.label,
            "kind": self.kind,
            "dep_indices": list(self.dep_indices),
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "Op":
        """Rebuild an op captured by :meth:`to_state_dict`."""
        return cls(
            index=int(payload["index"]),
            resource=payload["resource"],
            duration=payload["duration"],
            start=payload["start"],
            end=payload["end"],
            label=payload["label"],
            kind=payload["kind"],
            dep_indices=tuple(int(i) for i in payload["dep_indices"]),
        )


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
        which would corrupt the causality audit.  A lane already past
        ``t`` is left untouched.

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


@dataclass
class Timeline:
    """Accumulates ops and resolves their start/end times on submission."""

    ops: list[Op] = field(default_factory=list)
    clock: ResourceClock = field(default_factory=ResourceClock)

    def add(self, resource: str, duration: float,
            deps: list[Op] | None = None, label: str = "",
            kind: str = "") -> Op:
        """Schedule an op; returns its handle with resolved times."""
        free = self.clock.free
        ready = free.get(resource)
        if ready is None:
            raise ValueError(f"unknown resource {resource!r}")
        if duration < 0:
            raise ValueError("duration must be non-negative")
        dep_indices = ()
        if deps:
            for dep in deps:
                if dep.end > ready:
                    ready = dep.end
            dep_indices = tuple(dep.index for dep in deps)
        op = Op(len(self.ops), resource, duration, ready, ready + duration,
                label, kind, dep_indices)
        self.ops.append(op)
        free[resource] = op.end
        return op

    def rebase(self, t0: float) -> None:
        """Shift every recorded op ``t0`` seconds toward zero.

        A sequence served on a *shared* clock records absolute lane
        times; rebasing by its service-start time turns the record into
        the same sequence-local schedule a solo run would have produced
        (op 0 starts at 0, ``makespan`` is the service duration), which
        is what :class:`GenerationStats` and the energy integral expect.
        Only a finished timeline may be rebased -- the shared clock is
        deliberately left untouched, so adding ops afterwards would
        desynchronize the record.  The ops shift in place, so every
        held handle (a sequence's ``last_op``) reads rebased times.

        Raises:
            ValueError: if ``t0`` exceeds the earliest op start (a shift
                that would move an op before time zero).
        """
        if t0 == 0.0 or not self.ops:
            return
        first = min(op.start for op in self.ops)
        if t0 > first + 1e-12:
            raise ValueError(
                f"cannot rebase by {t0}: earliest op starts at {first}"
            )
        for op in self.ops:
            op.start -= t0
            op.end -= t0

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
        payload = {"ops": [op.to_state_dict() for op in self.ops]}
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
        """
        if clock is None:
            clock = (ResourceClock.from_state_dict(payload["clock"])
                     if "clock" in payload else ResourceClock())
        timeline = cls(clock=clock)
        timeline.ops.extend(
            Op.from_state_dict(op) for op in payload["ops"]
        )
        return timeline

    # ---- statistics ----------------------------------------------------------

    @property
    def makespan(self) -> float:
        """End time of the last-finishing op."""
        return max((op.end for op in self.ops), default=0.0)

    def busy_time(self, resource: str) -> float:
        """Total execution time charged to one resource."""
        return sum(op.duration for op in self.ops if op.resource == resource)

    def utilization(self, resource: str) -> float:
        """Busy fraction of one resource over the makespan."""
        span = self.makespan
        if span <= 0:
            return 0.0
        return self.busy_time(resource) / span

    def ops_on(self, resource: str) -> list[Op]:
        """All ops scheduled on one resource, in submission order."""
        return [op for op in self.ops if op.resource == resource]

    def window(self, t0: float, t1: float) -> list[Op]:
        """Ops overlapping the time window ``[t0, t1)``."""
        return [op for op in self.ops if op.start < t1 and op.end > t0]

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
