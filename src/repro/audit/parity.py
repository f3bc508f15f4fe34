"""One definition of bitwise parity between two generation results.

Every audit in :mod:`repro.audit` that asserts "these two runs are
interchangeable" -- cache-on vs cache-off, ``start``/``step``/``finish``
and the scheduler vs ``generate()``, gathered vs solo, resumed vs
uninterrupted -- decides it here, under one of two contracts:

- :func:`value_differences` -- *same values*: the token stream, every
  trace event (including its ``predicted`` provenance), the
  ``EngineCounters`` and the final expert placement.  Gathered runs are
  held to this: gathering may change the simulated schedule, never a
  value.
- :func:`result_differences` -- *interchangeable*: the same values plus
  ``prefill_time_s``, ``total_time_s`` and the per-op simulated timeline
  (op count and the first differing op).  Cached, stepped, scheduled
  and resumed runs are held to this.

Findings are collected as :class:`Comparison` s in one
:class:`ParityReport` type shared by the differential, step-parity and
resume-parity audits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.audit.invariants import audit_generation
from repro.core.engine import GenerationResult


def timeline_signature(timeline) -> list:
    """Per-op ``(resource, duration, start, end, kind, label)`` tuples of
    a timeline, read from its columns, for bitwise comparison."""
    return list(zip(timeline.resources, timeline.durations,
                    timeline.starts, timeline.ends, timeline.kinds,
                    timeline.labels))


def value_differences(reference: GenerationResult,
                      candidate: GenerationResult) -> list:
    """Where ``candidate``'s values differ from ``reference``'s.

    Compares the token stream, trace events, ``EngineCounters`` and the
    final placement; the simulated schedule may differ.
    """
    problems = []
    if not np.array_equal(reference.tokens, candidate.tokens):
        problems.append("token stream differs")
    # Compares the traces' columns (equal exactly when the events are).
    if reference.trace.events != candidate.trace.events:
        problems.append("trace events differ")
    if reference.stats.counters != candidate.stats.counters:
        problems.append("EngineCounters differ")
    if not np.array_equal(reference.placement.as_matrix(),
                          candidate.placement.as_matrix()):
        problems.append("final placement differs")
    return problems


def result_differences(reference: GenerationResult,
                       candidate: GenerationResult) -> list:
    """Where ``candidate`` is not interchangeable with ``reference``.

    :func:`value_differences` plus the phase times and the per-op
    timeline; a reordered schedule is reported once, at its first
    differing op.
    """
    problems = value_differences(reference, candidate)
    for attr in ("prefill_time_s", "total_time_s"):
        ref = getattr(reference.stats, attr)
        got = getattr(candidate.stats, attr)
        if ref != got:
            problems.append(f"{attr} {got!r} != {ref!r}")
    ref_ops = timeline_signature(reference.timeline)
    got_ops = timeline_signature(candidate.timeline)
    if len(ref_ops) != len(got_ops):
        problems.append(f"per-op timeline: op count {len(got_ops)} != "
                        f"{len(ref_ops)}")
    for index, (ref, got) in enumerate(zip(ref_ops, got_ops)):
        if ref != got:
            problems.append(f"per-op timeline: op {index} {got!r} != "
                            f"{ref!r}")
            break
    return problems


@dataclass
class Comparison:
    """One audited unit (an engine and seed, or a cut): its findings.

    ``problems`` are parity findings, each prefixed with the path that
    produced it; ``audits`` are ``(path, AuditReport)`` invariant audits
    of the results those paths produced.
    """

    label: str
    problems: list = field(default_factory=list)
    audits: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every path matched and every invariant audit passed."""
        return not self.problems and all(a.ok for _, a in self.audits)

    def check(self, path: str, reference: GenerationResult,
              candidate: GenerationResult,
              differences=result_differences, engine=None) -> None:
        """Record where ``candidate`` differs from ``reference`` on ``path``.

        With an ``engine``, ``candidate`` is also invariant-audited
        against it.
        """
        self.problems.extend(
            f"{path}: {p}" for p in differences(reference, candidate)
        )
        if engine is not None:
            self.audits.append((path, audit_generation(engine, candidate)))


@dataclass
class ParityReport:
    """Aggregated outcome of one audit run."""

    title: str
    comparisons: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every comparison passed."""
        return all(c.ok for c in self.comparisons)

    @property
    def problems(self) -> list:
        """Every finding and violation, prefixed with its label (and path)."""
        out = []
        for c in self.comparisons:
            out.extend(f"{c.label}: {p}" for p in c.problems)
            for path, audit in c.audits:
                out.extend(f"{c.label}/{path}: {v.format()}"
                           for v in audit.violations)
        return out

    def format(self) -> str:
        """Multi-line human-readable summary of the whole run."""
        lines = [
            f"{self.title}: {len(self.comparisons)} comparison(s), "
            f"{'all ok' if self.ok else 'FAILURES'}"
        ]
        lines.extend(f"  {p}" for p in self.problems)
        return "\n".join(lines)
