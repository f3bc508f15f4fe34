"""Durable simulation checkpoints (save / load / validate).

A :class:`SimCheckpoint` wraps one simulator session's plain-data state
— a :class:`~repro.serving.simulator.ServingSimulator` batch session or
a :class:`~repro.cluster.simulator.ClusterSimulator` event-loop snapshot
— together with the metadata needed to refuse bad resumes: a format
version (schema skew), the owning simulator kind, an engine description,
and a content digest over the canonical JSON rendering (corruption).
The invariant the whole lifecycle stack maintains: restoring a
checkpoint taken at step *k* (in this process or a fresh one) and
running to completion is bitwise identical to never pausing.

File layout is one JSON document, so checkpoints diff cleanly and stay
inspectable with standard tooling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.model.serialization import canonical_digest

#: Version of the on-disk checkpoint envelope; bumped whenever the
#: envelope or a simulator payload changes shape.  Version 2 dropped the
#: execution-mode field from the serving and cluster configs; version 3
#: dropped ``carry_placement`` and the admission hold fields
#: (``batch_hold_s``, ``crossover_tokens``) from the cluster config.
SIM_CHECKPOINT_VERSION = 3

#: Registered simulator kinds.
SERVING_KIND = "serving"
CLUSTER_KIND = "cluster"
CHECKPOINT_KINDS = (SERVING_KIND, CLUSTER_KIND)


class CheckpointError(ValueError):
    """A checkpoint could not be read: corrupted, skewed, or mismatched."""


@dataclass(frozen=True)
class SimCheckpoint:
    """One simulator session frozen as plain data.

    Attributes:
        kind: which simulator wrote it (:data:`SERVING_KIND` or
            :data:`CLUSTER_KIND`).
        engine: human-readable engine description (engine name, or a
            comma-joined replica list for a cluster).
        payload: the simulator-specific session state.
        version: envelope format version.
    """

    kind: str
    engine: str
    payload: dict
    version: int = SIM_CHECKPOINT_VERSION

    def __post_init__(self) -> None:
        if self.kind not in CHECKPOINT_KINDS:
            raise CheckpointError(
                f"unknown checkpoint kind {self.kind!r}; registered "
                f"kinds: {list(CHECKPOINT_KINDS)}"
            )

    def to_dict(self) -> dict:
        """JSON-compatible envelope with a trailing content digest."""
        body = {
            "version": self.version,
            "kind": self.kind,
            "engine": self.engine,
            "payload": self.payload,
        }
        body["digest"] = canonical_digest(
            {key: body[key] for key in
             ("version", "kind", "engine", "payload")}
        )
        return body

    @classmethod
    def from_dict(cls, data: dict) -> "SimCheckpoint":
        """Validate and unwrap an envelope written by :meth:`to_dict`.

        Raises:
            CheckpointError: for a non-envelope document, an unsupported
                format version, or a digest mismatch (corruption).
        """
        if not isinstance(data, dict) or "payload" not in data:
            raise CheckpointError(
                "not a simulation checkpoint: missing 'payload' envelope"
            )
        version = data.get("version")
        if version != SIM_CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r}; this build "
                f"reads version {SIM_CHECKPOINT_VERSION}"
            )
        digest = canonical_digest(
            {key: data.get(key) for key in
             ("version", "kind", "engine", "payload")}
        )
        if digest != data.get("digest"):
            raise CheckpointError(
                f"checkpoint is corrupted: content digest {digest} does "
                f"not match the recorded {data.get('digest')!r}"
            )
        return cls(
            kind=data["kind"],
            engine=data["engine"],
            payload=data["payload"],
            version=int(version),
        )


def save_checkpoint(path: str, checkpoint: SimCheckpoint) -> None:
    """Write one checkpoint as a JSON document."""
    with open(path, "w") as handle:
        json.dump(checkpoint.to_dict(), handle, sort_keys=True)
        handle.write("\n")


def load_checkpoint(path: str) -> SimCheckpoint:
    """Read and validate a checkpoint written by :func:`save_checkpoint`.

    Raises:
        CheckpointError: for unparsable JSON or a failed envelope check.
    """
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint file {path!r} is not valid JSON: {exc}"
            ) from exc
    return SimCheckpoint.from_dict(data)
