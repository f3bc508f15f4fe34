"""Admission control, SLO targets, and deadline-based load shedding.

A single-engine FIFO queue (``repro.serving``) grows without bound when
arrivals outpace service; a fleet cannot afford that.  The cluster
simulator degrades gracefully instead: each replica's queue is bounded
(arrivals beyond the bound are *shed* with an immediate rejection), and
requests whose time-to-first-token deadline has already passed by the
time a replica could start them are *expired* rather than served — work
that can no longer meet its SLO only delays work that still can.

:class:`SLOTarget` doubles as the reporting vocabulary: goodput and
SLO-attainment in :mod:`repro.cluster.report` are defined against its
TTFT and TPOT targets.
"""

from __future__ import annotations

from dataclasses import dataclass

SHED = "shed"
EXPIRED = "expired"


@dataclass(frozen=True)
class SLOTarget:
    """Per-request service-level objectives.

    Attributes:
        ttft_s: time-to-first-token target in simulated seconds.
        tpot_s: time-per-output-token target in simulated seconds.
    """

    ttft_s: float = 30.0
    tpot_s: float = 1.0

    def __post_init__(self) -> None:
        if self.ttft_s <= 0 or self.tpot_s <= 0:
            raise ValueError("SLO targets must be positive")


@dataclass(frozen=True)
class AdmissionController:
    """Per-replica admission: a queue bound plus a TTFT deadline.

    A free replica always dispatches at once; it never holds a request
    back waiting for a batchmate.

    Attributes:
        max_queue_len: waiting-request bound per replica; an arrival
            routed to a replica whose queue is full is shed.
        ttft_deadline_s: if set, a queued request whose wait already
            exceeds this deadline (simulated seconds) when a replica
            becomes free is expired instead of served.
    """

    max_queue_len: int = 8
    ttft_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_queue_len < 1:
            raise ValueError("max_queue_len must be positive")
        if self.ttft_deadline_s is not None and self.ttft_deadline_s <= 0:
            raise ValueError("ttft_deadline_s must be positive")

    def admit(self, queue_len: int) -> bool:
        """Whether a replica with ``queue_len`` waiting requests may
        accept one more."""
        return queue_len < self.max_queue_len

    def expired(self, arrival_s: float, now: float) -> bool:
        """Whether a request that arrived at ``arrival_s`` has already
        blown its TTFT deadline at dispatch time ``now``."""
        if self.ttft_deadline_s is None:
            return False
        return (now - arrival_s) > self.ttft_deadline_s
