"""Schedule analysis: utilization, attribution, and critical paths.

The timeline records every op an engine scheduled; this module answers
the questions a systems paper asks of such a schedule: where did the time
go (per resource and per op kind), what fraction of the makespan was each
resource busy, and which chain of ops actually bounded end-to-end latency
(the critical path).  The Fig. 8 discussion in the paper is exactly a
critical-path argument: migrating engines put 40 ms uploads on it,
Fiddler puts same-block CPU execution on it, DAOP moves the CPU work off
it via lookahead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.timeline import RESOURCES, Op, Timeline


@dataclass(frozen=True)
class UtilizationReport:
    """Per-resource busy time and utilization over a timeline."""

    makespan: float
    busy: dict[str, float]
    utilization: dict[str, float]

    def dominant_resource(self) -> str:
        """The resource with the highest busy time."""
        return max(self.busy, key=self.busy.get)


@dataclass(frozen=True)
class AttributionReport:
    """Busy time grouped by op kind (attn, expert, upload, ...)."""

    by_kind: dict[str, float]
    total: float

    def fraction(self, kind: str) -> float:
        """Share of total busy time spent in one op kind."""
        if self.total <= 0:
            return 0.0
        return self.by_kind.get(kind, 0.0) / self.total

    def top(self, n: int = 5) -> list[tuple[str, float]]:
        """The ``n`` most expensive op kinds."""
        ranked = sorted(self.by_kind.items(), key=lambda kv: -kv[1])
        return ranked[:n]


@dataclass
class CriticalPath:
    """The latency-determining chain of ops in a schedule."""

    ops: list[Op] = field(default_factory=list)

    @property
    def length(self) -> float:
        """End time of the path's last op (equals the makespan)."""
        return self.ops[-1].end if self.ops else 0.0

    def kind_breakdown(self) -> dict[str, float]:
        """Time on the critical path attributed to each op kind."""
        out: dict[str, float] = {}
        for op in self.ops:
            key = op.kind or "unknown"
            out[key] = out.get(key, 0.0) + op.duration
        return out

    def resource_breakdown(self) -> dict[str, float]:
        """Time on the critical path attributed to each resource."""
        out: dict[str, float] = {}
        for op in self.ops:
            out[op.resource] = out.get(op.resource, 0.0) + op.duration
        return out


def utilization_report(timeline: Timeline) -> UtilizationReport:
    """Compute busy time and utilization for every resource."""
    busy = {r: timeline.busy_time(r) for r in RESOURCES}
    span = timeline.makespan
    util = {r: (b / span if span > 0 else 0.0) for r, b in busy.items()}
    return UtilizationReport(makespan=span, busy=busy, utilization=util)


def attribution_report(timeline: Timeline,
                       resource: str | None = None) -> AttributionReport:
    """Group busy time by op kind, optionally for one resource."""
    by_kind: dict[str, float] = {}
    total = 0.0
    for op in timeline.ops:
        if resource is not None and op.resource != resource:
            continue
        key = op.kind or "unknown"
        by_kind[key] = by_kind.get(key, 0.0) + op.duration
        total += op.duration
    return AttributionReport(by_kind=by_kind, total=total)


def critical_path(timeline: Timeline) -> CriticalPath:
    """Trace the chain of ops that determines the makespan.

    Walks backward from the last-finishing op.  An op starts when the
    latest of its declared dependencies (``dep_indices``) and the
    previous op on its resource lane (the timeline executes each lane
    in submission order) ends, so that op is its predecessor on the
    path; of equal ends the earliest-recorded wins.  The walk stops at
    an op starting at time 0 or without predecessors.  On a private
    clock the path therefore runs contiguously from 0 to the makespan;
    on a clock shared with other sequences an op may also have waited
    for another timeline's op, which this timeline does not record.
    """
    if not timeline.ops:
        return CriticalPath()
    ends = timeline.ends
    lane_prev: list[int | None] = []
    last_on: dict[str, int] = {}
    for index, resource in enumerate(timeline.resources):
        lane_prev.append(last_on.get(resource))
        last_on[resource] = index

    path: list[Op] = []
    current = max(range(len(ends)), key=ends.__getitem__)
    while True:
        op = timeline.ops[current]
        path.append(op)
        candidates = list(op.dep_indices)
        if lane_prev[current] is not None:
            candidates.append(lane_prev[current])
        if op.start <= 0.0 or not candidates:
            break
        current = max(candidates, key=lambda index: (ends[index], -index))
    path.reverse()
    return CriticalPath(ops=path)


def summarize_schedule(timeline: Timeline) -> str:
    """Human-readable multi-line schedule summary."""
    util = utilization_report(timeline)
    attribution = attribution_report(timeline)
    path = critical_path(timeline)
    lines = [f"makespan: {util.makespan * 1e3:.2f} ms"]
    for resource in RESOURCES:
        lines.append(
            f"  {resource:>4}: busy {util.busy[resource] * 1e3:9.2f} ms "
            f"({100 * util.utilization[resource]:5.1f} %)"
        )
    lines.append("busy time by op kind:")
    for kind, t in attribution.top(8):
        lines.append(
            f"  {kind:<16} {t * 1e3:9.2f} ms "
            f"({100 * attribution.fraction(kind):5.1f} %)"
        )
    lines.append("critical path by op kind:")
    for kind, t in sorted(path.kind_breakdown().items(),
                          key=lambda kv: -kv[1]):
        lines.append(f"  {kind:<16} {t * 1e3:9.2f} ms")
    return "\n".join(lines)
