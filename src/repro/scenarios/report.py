"""Scenario run artifacts: joined serving records plus a content digest.

A :class:`ScenarioReport` is the JSON artifact a scenario run produces:
every served request annotated with its scenario metadata (tenant, SLO
class, dataset, session), aggregate metrics overall and broken out per
tenant and per SLO class, and a deterministic
:meth:`~ScenarioReport.content_digest` over the canonical rendering —
two runs of the same scenario are byte-diffable, and replaying a pinned
workload must reproduce the digest exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.workloads.requests import (
    SLO_CLASS_TARGETS,
    RequestAggregates,
    RequestGroup,
    ServedRequest,
)


@dataclass(frozen=True)
class ScenarioRequestRecord(ServedRequest):
    """One served request joined with its scenario metadata.

    Attributes (beyond :class:`~repro.workloads.requests.ServedRequest`):
        tenant: tenant the request belongs to.
        slo_class: the request's SLO class.
        dataset: dataset its tokens were drawn from.
        session: session id for prefix-reuse tenants, or None.
    """

    tenant: str
    slo_class: str
    dataset: str
    session: int | None

    @property
    def slo_met(self) -> bool:
        """Whether the request met its class's latency targets."""
        return SLO_CLASS_TARGETS[self.slo_class].met(self.ttft_s,
                                                     self.tpot_s)


@dataclass(frozen=True)
class ScenarioRejection:
    """One request dropped before service (cluster admission control).

    Attributes:
        request_id: scenario-level request identifier.
        tenant: tenant the request belonged to.
        slo_class: the request's SLO class.
        arrival_s: arrival time in simulated seconds.
        reason: admission-control verdict (``shed`` / ``expired``).
    """

    request_id: int
    tenant: str
    slo_class: str
    arrival_s: float
    reason: str


def _summary(group: RequestAggregates) -> dict:
    """Aggregate metrics of one request set (stable key order)."""
    return {
        "offered": group.n_offered,
        "served": group.n_served,
        "rejected": len(group.rejected),
        "slo_attainment": group.slo_attainment,
        "generated_tokens": group.total_generated,
        "throughput_tokens_per_s": group.throughput_tokens_per_s,
        "ttft_p50_s": group.ttft_percentile(50),
        "ttft_p95_s": group.ttft_percentile(95),
        "tpot_p50_s": group.tpot_percentile(50),
        "latency_p95_s": group.latency_percentile(95),
        "mean_queue_delay_s": group.mean_queue_delay_s,
    }


@dataclass
class ScenarioReport(RequestAggregates):
    """Aggregate artifact of one scenario run."""

    scenario: str
    engine: str
    mode: str
    seed: int
    concurrency: int = 1
    requests: list = field(default_factory=list)
    rejected: list = field(default_factory=list)

    def _breakdown(self, key) -> dict:
        """Per-group summaries keyed by ``key(record)`` (sorted keys)."""
        groups = sorted(
            {key(r) for r in self.requests}
            | {key(r) for r in self.rejected}
        )
        return {
            name: _summary(RequestGroup(
                requests=[r for r in self.requests if key(r) == name],
                rejected=[r for r in self.rejected if key(r) == name],
                window_s=self.makespan_s,
            ))
            for name in groups
        }

    def per_tenant(self) -> dict:
        """Aggregate metrics broken out per tenant."""
        return self._breakdown(lambda r: r.tenant)

    def per_slo_class(self) -> dict:
        """Aggregate metrics broken out per SLO class."""
        return self._breakdown(lambda r: r.slo_class)

    def to_dict(self) -> dict:
        """Plain-data view of the report (stable field ordering)."""
        return {
            "scenario": self.scenario,
            "engine": self.engine,
            "mode": self.mode,
            "seed": self.seed,
            # Backend execution knobs are part of the report identity:
            # two runs that schedule differently (different admission
            # width) must never alias to one digest even when their
            # metrics happen to tie.
            "backend": {
                "concurrency": self.concurrency,
            },
            "summary": {"makespan_s": self.makespan_s, **_summary(self)},
            "per_tenant": self.per_tenant(),
            "per_slo_class": self.per_slo_class(),
            "requests": [
                {
                    "request_id": r.request_id,
                    "tenant": r.tenant,
                    "slo_class": r.slo_class,
                    "dataset": r.dataset,
                    "session": r.session,
                    "arrival_s": r.arrival_s,
                    "queue_delay_s": r.queue_delay_s,
                    "ttft_s": r.ttft_s,
                    "tpot_s": r.tpot_s,
                    "latency_s": r.latency_s,
                    "n_prompt_tokens": r.n_prompt_tokens,
                    "n_generated": r.n_generated,
                    "energy_j": r.energy_j,
                    "slo_met": r.slo_met,
                }
                for r in self.requests
            ],
            "rejected": [
                {
                    "request_id": r.request_id,
                    "tenant": r.tenant,
                    "slo_class": r.slo_class,
                    "arrival_s": r.arrival_s,
                    "reason": r.reason,
                }
                for r in self.rejected
            ],
        }

    def content_digest(self) -> str:
        """Hex digest of the canonical report rendering.

        Two scenario runs are equivalent iff their digests match: the
        digest covers every request record and aggregate, so it detects
        any drift in tokens served, scheduling, or metric computation.
        """
        return _digest(self.to_dict())

    def to_json(self, indent: int = 2) -> str:
        """Deterministic JSON rendering, digest included."""
        payload = self.to_dict()
        payload["digest"] = _digest(payload)
        return json.dumps(payload, indent=indent, sort_keys=True)


def _digest(payload: dict) -> str:
    """Content digest of a report payload: the recorded one, if any."""
    if "digest" in payload:
        return payload["digest"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def diff_reports(a: dict, b: dict) -> list:
    """Human-readable differences between two scenario-report payloads.

    ``a`` and ``b`` are :meth:`ScenarioReport.to_dict` payloads or
    parsed :meth:`ScenarioReport.to_json` files.  Returns an empty list
    when their content digests match; otherwise the digest line, one
    line per differing identity field and summary metric, and one line
    per request served by only one report or served differently — the
    ``repro scenarios compare`` primitive.
    """
    digest_a, digest_b = _digest(a), _digest(b)
    if digest_a == digest_b:
        return []
    lines = [f"digest: {digest_a} != {digest_b}"]
    for key in ("scenario", "engine", "mode", "seed", "backend"):
        if a.get(key) != b.get(key):
            lines.append(f"{key}: {a.get(key)!r} != {b.get(key)!r}")
    summary_a, summary_b = a.get("summary", {}), b.get("summary", {})
    for key in sorted(set(summary_a) | set(summary_b)):
        if summary_a.get(key) != summary_b.get(key):
            lines.append(f"summary.{key}: {summary_a.get(key)!r} != "
                         f"{summary_b.get(key)!r}")
    for kind in ("requests", "rejected"):
        rows_a = {r["request_id"]: r for r in a.get(kind, [])}
        rows_b = {r["request_id"]: r for r in b.get(kind, [])}
        only_a = sorted(set(rows_a) - set(rows_b))
        only_b = sorted(set(rows_b) - set(rows_a))
        if only_a:
            lines.append(f"{kind} only in first: {only_a}")
        if only_b:
            lines.append(f"{kind} only in second: {only_b}")
        for rid in sorted(set(rows_a) & set(rows_b)):
            row_a, row_b = rows_a[rid], rows_b[rid]
            changed = [
                f"{key} {row_a.get(key)!r} != {row_b.get(key)!r}"
                for key in sorted(set(row_a) | set(row_b))
                if row_a.get(key) != row_b.get(key)
            ]
            if changed:
                lines.append(f"{kind}[{rid}]: " + ", ".join(changed))
    return lines
