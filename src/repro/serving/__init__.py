"""Request-level serving simulation (queueing on top of the engines)."""

from repro.serving.checkpoint import (
    CHECKPOINT_KINDS,
    CLUSTER_KIND,
    SERVING_KIND,
    SIM_CHECKPOINT_VERSION,
    CheckpointError,
    SimCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.serving.simulator import (
    ServedRequest,
    ServingReport,
    ServingSession,
    ServingSimulator,
)

__all__ = [
    "CHECKPOINT_KINDS",
    "CLUSTER_KIND",
    "SERVING_KIND",
    "SIM_CHECKPOINT_VERSION",
    "CheckpointError",
    "SimCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
    "ServedRequest",
    "ServingReport",
    "ServingSession",
    "ServingSimulator",
]
