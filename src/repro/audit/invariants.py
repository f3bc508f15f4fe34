"""Post-hoc runtime invariant audit for engine generations.

Every engine in this reproduction is compared on the same substrate, and
the paper's headline numbers are only meaningful if that substrate obeys
the contracts it states in prose.  This module audits a finished
:class:`repro.core.engine.GenerationResult` (the *artifact*, not the live
engine) against those contracts:

- **Timeline causality** -- every op starts at or after the end of every
  dependency it declared, and each resource lane executes its ops in
  submission order without overlap (deterministic list scheduling).
- **Counter conservation** -- the engine counters, the scheduled timeline
  ops, and the recorded routing trace are three views of the same
  execution: ``gpu_expert_execs + cpu_expert_execs`` must equal both the
  number of expert ops on the timeline and the exec count implied by the
  trace, ``expert_uploads`` must equal the upload ops, and
  ``activated_total`` must equal the trace's activation count.
- **Upload/placement consistency** -- any expert that ended GPU-resident
  without starting there must have an upload op on the timeline.
- **Energy/makespan consistency** -- the stats' total time is the
  timeline makespan, the energy breakdown sums to its total, and (when a
  platform is supplied) re-integrating the timeline reproduces it.
- **Prefill-only migration** (paper SS IV-B) -- engines that restrict
  migration to prefill (``decode_realloc_interval is None`` for DAOP)
  schedule no expert upload after prefill completes.
- **Divergence provenance** -- an executed expert set may deviate from
  the gate's selection only on trace events marked ``predicted=True``
  (DAOP's approximation); predictions only ever happen during decode.

The checks are pure functions over the result object so they can audit
any engine -- including future baselines -- without cooperation from the
engine class.  :func:`audit_generation` is the convenience entry point
used by the test fixture and the differential harness.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import GenerationResult
from repro.hardware.energy import EnergyModel
from repro.hardware.platform import Platform
from repro.hardware.timeline import RESOURCES
from repro.memory.placement import ExpertPlacement
from repro.trace.recorder import (
    DECODE,
    PHASES,
    PREFILL,
    column_view,
    pair_keys,
)

#: Op kinds that execute one expert FFN.
EXPERT_OP_KINDS = ("expert_gpu", "expert_cpu")

#: Label pattern shared by every engine's expert-upload ops.
_UPLOAD_LABEL = re.compile(r"E(\d+)@B(\d+)")

#: Absolute slack for simulated-time comparisons (seconds).
TIME_TOLERANCE_S = 1e-9


@dataclass(frozen=True)
class Violation:
    """One broken invariant found by the auditor."""

    check: str
    message: str

    def format(self) -> str:
        """Render as ``check: message``."""
        return f"{self.check}: {self.message}"


@dataclass
class AuditReport:
    """Outcome of auditing one generation."""

    engine: str
    violations: list = field(default_factory=list)
    checks_run: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every audited invariant held."""
        return not self.violations

    def add(self, check: str, message: str) -> None:
        """Record one violation."""
        self.violations.append(Violation(check=check, message=message))

    def format(self) -> str:
        """Multi-line human-readable summary."""
        head = (f"audit[{self.engine}]: "
                f"{len(self.checks_run)} checks, "
                f"{len(self.violations)} violation(s)")
        lines = [head] + [f"  {v.format()}" for v in self.violations]
        return "\n".join(lines)


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=TIME_TOLERANCE_S)


# ---- individual checks -----------------------------------------------------


def check_timeline_causality(result: GenerationResult,
                             report: AuditReport) -> None:
    """Dependencies end before dependents start; lanes never overlap.

    The timeline's columns are screened as arrays; only an op the screen
    flags is checked through its handle, which words the violations.
    """
    report.checks_run.append("timeline-causality")
    timeline = result.timeline
    durations = column_view(timeline.durations)
    starts = column_view(timeline.starts)
    ends = column_view(timeline.ends)
    offsets = column_view(timeline.dep_offsets)
    deps = column_view(timeline.dep_flat)
    owners = np.repeat(np.arange(starts.size), np.diff(offsets))
    in_range = (deps >= 0) & (deps < owners)
    late = np.zeros(deps.size, dtype=bool)
    late[in_range] = ends[deps[in_range]] \
        > starts[owners[in_range]] + TIME_TOLERANCE_S
    with np.errstate(invalid="ignore"):
        drift = np.abs(ends - (starts + durations))
    # A superset of the ops with a finding (NaN compares False):
    # ``_isclose`` never fails within the absolute tolerance.
    flagged = (durations < 0) | ~(drift <= TIME_TOLERANCE_S)
    flagged[owners[~in_range | late]] = True
    ops = timeline.ops
    for index in np.flatnonzero(flagged).tolist():
        op = ops[index]
        if op.duration < 0:
            report.add("timeline-causality",
                       f"op {op.index} ({op.label!r}) has negative "
                       f"duration {op.duration}")
        if not _isclose(op.end, op.start + op.duration):
            report.add("timeline-causality",
                       f"op {op.index} ({op.label!r}) spans "
                       f"[{op.start}, {op.end}] which disagrees with "
                       f"duration {op.duration}")
        for dep_index in op.dep_indices:
            if not 0 <= dep_index < op.index:
                report.add("timeline-causality",
                           f"op {op.index} ({op.label!r}) depends on "
                           f"op {dep_index}, which is not an earlier op")
                continue
            dep = ops[dep_index]
            if dep.end > op.start + TIME_TOLERANCE_S:
                report.add("timeline-causality",
                           f"op {op.index} ({op.label!r}) starts at "
                           f"{op.start} before its dependency "
                           f"{dep.index} ({dep.label!r}) ends at "
                           f"{dep.end}")
    for resource in RESOURCES:
        lane = [index for index, name in enumerate(timeline.resources)
                if name == resource]
        overlaps = starts[lane[1:]] + TIME_TOLERANCE_S < ends[lane[:-1]]
        for position in np.flatnonzero(overlaps).tolist():
            previous = ops[lane[position]]
            op = ops[lane[position + 1]]
            report.add("timeline-causality",
                       f"ops {previous.index} and {op.index} overlap "
                       f"on {resource}: [{previous.start}, "
                       f"{previous.end}] vs [{op.start}, {op.end}]")


def _expected_exec_count(result: GenerationResult) -> int:
    """Expert executions implied by the routing trace.

    Prefill processes all tokens of a block in one batched call, so it
    executes each *distinct* activated expert of the block once; each
    decode event executes its (executed) expert set for one token.
    """
    trace = result.trace
    prefill = column_view(trace.phases) == PHASES.index(PREFILL)
    rows, ids = trace.id_rows()
    take = prefill[rows]
    prefill_pairs = np.unique(
        pair_keys(column_view(trace.blocks)[rows[take]], ids[take])
    )
    rows, ids = trace.id_rows(executed=True)
    take = ~prefill[rows]
    decode_pairs = np.unique(pair_keys(rows[take], ids[take]))
    return prefill_pairs.size + decode_pairs.size


def check_counter_conservation(result: GenerationResult,
                               report: AuditReport) -> None:
    """Counters, timeline ops, and trace events must agree."""
    report.checks_run.append("counter-conservation")
    counters = result.stats.counters
    ops_by_kind = Counter(result.timeline.kinds)

    pairs = (
        ("gpu_expert_execs", counters.gpu_expert_execs,
         ops_by_kind.get("expert_gpu", 0)),
        ("cpu_expert_execs", counters.cpu_expert_execs,
         ops_by_kind.get("expert_cpu", 0)),
        ("expert_uploads", counters.expert_uploads,
         ops_by_kind.get("expert_upload", 0)),
    )
    for name, counted, scheduled in pairs:
        if counted != scheduled:
            report.add("counter-conservation",
                       f"counters.{name} = {counted} but the timeline "
                       f"holds {scheduled} matching op(s)")

    total_execs = counters.gpu_expert_execs + counters.cpu_expert_execs
    expected = _expected_exec_count(result)
    if total_execs != expected:
        report.add("counter-conservation",
                   f"{total_execs} expert execs counted but the trace "
                   f"implies {expected}")

    activated = result.trace.id_rows(executed=True)[1].size
    if counters.activated_total != activated:
        report.add("counter-conservation",
                   f"counters.activated_total = "
                   f"{counters.activated_total} but the trace records "
                   f"{activated} activations")
    if counters.activated_gpu_resident > counters.activated_total:
        report.add("counter-conservation",
                   "activated_gpu_resident exceeds activated_total")
    if counters.stale_input_execs > counters.cpu_expert_execs:
        report.add("counter-conservation",
                   "stale_input_execs exceeds cpu_expert_execs")


def check_upload_placement(result: GenerationResult,
                           report: AuditReport,
                           initial_placement: ExpertPlacement) -> None:
    """Experts that became GPU-resident must have been uploaded."""
    report.checks_run.append("upload-placement")
    uploaded = set()
    timeline = result.timeline
    for index, kind in enumerate(timeline.kinds):
        if kind != "expert_upload":
            continue
        label = timeline.labels[index]
        match = _UPLOAD_LABEL.search(label)
        if match is None:
            report.add("upload-placement",
                       f"upload op {index} has unparseable label "
                       f"{label!r}")
            continue
        uploaded.add((int(match.group(2)), int(match.group(1))))
    final = result.placement.as_matrix()
    initial = initial_placement.as_matrix()
    if final.shape != initial.shape:
        report.add("upload-placement",
                   f"placement shape {final.shape} differs from initial "
                   f"{initial.shape}")
        return
    for block, expert in np.argwhere(final & ~initial).tolist():
        if (block, expert) not in uploaded:
            report.add("upload-placement",
                       f"E{expert}@B{block} is GPU-resident at the "
                       "end but was never uploaded")


def check_energy_consistency(result: GenerationResult,
                             report: AuditReport,
                             platform: Platform | None = None) -> None:
    """Stats times/energy agree with the timeline they summarize."""
    report.checks_run.append("energy-consistency")
    stats = result.stats
    makespan = result.timeline.makespan
    if not _isclose(stats.total_time_s, makespan):
        report.add("energy-consistency",
                   f"total_time_s = {stats.total_time_s} but the "
                   f"timeline makespan is {makespan}")
    if stats.prefill_time_s > stats.total_time_s + TIME_TOLERANCE_S:
        report.add("energy-consistency",
                   f"prefill_time_s = {stats.prefill_time_s} exceeds "
                   f"total_time_s = {stats.total_time_s}")
    energy = stats.energy
    parts = energy.gpu_j + energy.cpu_j + energy.link_j + energy.base_j
    if not _isclose(energy.total_j, parts):
        report.add("energy-consistency",
                   f"energy total {energy.total_j} J != sum of parts "
                   f"{parts} J")
    if min(energy.gpu_j, energy.cpu_j, energy.link_j, energy.base_j) < 0:
        report.add("energy-consistency",
                   "negative component in the energy breakdown")
    if platform is not None:
        recomputed = EnergyModel(platform).energy(result.timeline)
        if not _isclose(recomputed.total_j, energy.total_j):
            report.add("energy-consistency",
                       f"re-integrating the timeline gives "
                       f"{recomputed.total_j} J but the stats carry "
                       f"{energy.total_j} J")


def check_prefill_only_migration(result: GenerationResult,
                                 report: AuditReport) -> None:
    """No expert upload may be issued, or run, after prefill (SS IV-B).

    A sequence's timeline records its ops in submission order, and
    every step ends in one LM-head op, so an upload recorded after the
    first LM-head op was issued by a decode step -- even one whose
    transfer ran on an idle copy lane before prefill ended.
    """
    report.checks_run.append("prefill-only-migration")
    kinds = result.timeline.kinds
    prefill_end = next((index for index, kind in enumerate(kinds)
                        if kind == "lm_head"), len(kinds))
    cutoff = result.stats.prefill_time_s + TIME_TOLERANCE_S
    ops = result.timeline.ops
    for index, kind in enumerate(kinds):
        if kind != "expert_upload":
            continue
        op = ops[index]
        if op.index > prefill_end:
            report.add("prefill-only-migration",
                       f"upload op {op.index} ({op.label!r}) was issued "
                       f"during decode, after prefill's LM-head op "
                       f"{prefill_end}")
        elif op.start > cutoff:
            report.add("prefill-only-migration",
                       f"upload op {op.index} ({op.label!r}) starts at "
                       f"{op.start}, after prefill ended at "
                       f"{result.stats.prefill_time_s}")


def check_divergence_provenance(result: GenerationResult,
                                report: AuditReport) -> None:
    """Executed experts may deviate from the gate only when predicted."""
    report.checks_run.append("divergence-provenance")
    trace = result.trace
    predicted = column_view(trace.predicted).astype(bool)
    flagged = (predicted & (column_view(trace.phases) != PHASES.index(DECODE))) \
        | (trace.diverged() & ~predicted)
    events = trace.events
    for index in np.flatnonzero(flagged).tolist():
        event = events[index]
        if event.predicted and event.phase != DECODE:
            report.add("divergence-provenance",
                       f"predicted event at block {event.block}, token "
                       f"{event.token_pos} is in phase {event.phase!r}; "
                       "prediction only happens during decode")
        if event.executed_experts is None:
            continue
        if set(event.executed_experts) != set(event.experts) \
                and not event.predicted:
            report.add("divergence-provenance",
                       f"block {event.block}, token {event.token_pos}: "
                       f"executed {event.executed_experts} != selected "
                       f"{event.experts} on an event not marked "
                       "predicted")


def check_pending_uploads_resident(engine, result: GenerationResult,
                                   report: AuditReport) -> None:
    """Pending decode-migration uploads must name GPU-resident experts.

    A re-allocation that swaps an expert back out purges its pending
    upload; a surviving stale key would let a future activation depend on
    an upload for weights that are no longer resident.  The keys and the
    placement are the audited result's own (its sequence's final
    residency), so a batched audit reads the right sequence.  Only DAOP's
    pending uploads are swap-issued (engines carrying
    ``decode_realloc_interval``); a prefetching baseline's unconsumed
    prefetch may name an expert evicted since, so its results are not
    checked.
    """
    report.checks_run.append("pending-uploads-resident")
    if not hasattr(engine, "decode_realloc_interval"):
        return
    for block, expert in result.pending_uploads:
        if not result.placement.is_on_gpu(block, expert):
            report.add("pending-uploads-resident",
                       f"pending upload for E{expert}@B{block} but that "
                       "expert is not GPU-resident")


# ---- entry points ----------------------------------------------------------


def audit_result(
    result: GenerationResult,
    engine_name: str = "",
    initial_placement: ExpertPlacement | None = None,
    platform: Platform | None = None,
    prefill_only_uploads: bool = False,
) -> AuditReport:
    """Audit one :class:`GenerationResult` against the substrate contracts.

    Args:
        result: the finished generation to audit.
        engine_name: label used in the report.
        initial_placement: when given, enables the upload/placement
            transition check (needs the pre-generation placement).
        platform: when given, the energy breakdown is re-integrated from
            the timeline and compared.
        prefill_only_uploads: assert no upload op is issued or starts
            after prefill
            (the paper's DAOP configuration and all never-migrating
            engines; caching baselines legitimately upload in decode).

    Returns:
        An :class:`AuditReport`; ``report.ok`` is True iff every audited
        invariant held.
    """
    report = AuditReport(engine=engine_name or "engine")
    check_timeline_causality(result, report)
    check_counter_conservation(result, report)
    check_energy_consistency(result, report, platform)
    check_divergence_provenance(result, report)
    if initial_placement is not None:
        check_upload_placement(result, report, initial_placement)
    if prefill_only_uploads:
        check_prefill_only_migration(result, report)
    return report


def expects_prefill_only_uploads(engine) -> bool:
    """Whether an engine promises to migrate experts only during prefill.

    An engine with an eviction cache (the caching and prefetching
    baselines) uploads during decode as its published behavior; DAOP
    does so only with the decode re-allocation extension on
    (``decode_realloc_interval`` set).  The rest move experts during
    prefill at most.
    """
    return getattr(engine, "eviction_policy", None) is None \
        and getattr(engine, "decode_realloc_interval", None) is None


def audit_generation(engine, result: GenerationResult,
                     platform: Platform | None = None) -> AuditReport:
    """Audit a generation with everything the live engine can tell us.

    Adds the engine-derived context :func:`audit_result` cannot infer
    from the artifact alone: the initial placement, the prefill-only
    promise, and (for DAOP) the pending-upload residency check.
    """
    report = audit_result(
        result,
        engine_name=getattr(engine, "name", type(engine).__name__),
        initial_placement=getattr(engine, "initial_placement", None),
        platform=platform or getattr(engine, "platform", None),
        prefill_only_uploads=expects_prefill_only_uploads(engine),
    )
    check_pending_uploads_resident(engine, result, report)
    return report
