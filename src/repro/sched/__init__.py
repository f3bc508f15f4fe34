"""Continuous batching of resumable sequences on one engine."""

from repro.sched.scheduler import (
    BatchReport,
    ContinuousBatchScheduler,
    SequenceRecord,
)

__all__ = [
    "BatchReport",
    "ContinuousBatchScheduler",
    "SequenceRecord",
]
