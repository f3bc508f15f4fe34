"""One sequence's expert residency: placement, eviction cache, uploads.

DAOP's Algorithm 1 and every caching baseline decide the same three
things: which experts are GPU-resident, which one leaves when another
must come in, and which uploads are still in flight.  A
:class:`Residency` holds all three for one sequence, so engines differ
only in the choices they make on it (eviction policy, prefetch source,
transfer), never in how the state is kept or checkpointed.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.device import DeviceKind
from repro.memory.placement import ExpertPlacement
from repro.memory.policies import EvictionPolicyCache


class Residency:
    """Where one sequence's experts live, and what is on its way.

    Each block has a fixed number of GPU slots: as many experts as the
    placement it is built with holds there.  :meth:`admit` and
    :meth:`evict` are the only writers of the placement, so no block
    ever holds more experts than its slots.

    Attributes:
        placement: the :class:`ExpertPlacement` the engine reads;
            changed only through :meth:`admit` and :meth:`evict`.
        caches: one :class:`EvictionPolicyCache` per block over the
            GPU-resident experts, or ``None`` for an engine without an
            eviction cache (Fiddler, DAOP, the official engine).
        pending: in-flight uploads ``{(block, expert): op}`` whose
            expert's next use must wait for the transfer.
    """

    def __init__(self, placement: ExpertPlacement,
                 caches: list | None = None,
                 pending: dict | None = None) -> None:
        self.placement = placement
        self.caches = caches
        self.pending = {} if pending is None else pending
        #: GPU slots per block, fixed at construction.  Every block is
        #: full between engine steps, so a restored checkpoint recovers
        #: the same capacity from its placement.
        self.capacity = placement.as_matrix().sum(axis=1).tolist()

    @classmethod
    def seeded(cls, placement: ExpertPlacement, policy: str | None,
               calibration_probs: np.ndarray | None = None) -> "Residency":
        """A fresh residency over ``placement``.

        With an eviction ``policy``, each block gets a cache sized to
        its GPU-resident experts and seeded coldest first by the
        calibration probabilities, so the hottest experts are the last
        to leave.
        """
        if policy is None:
            return cls(placement)
        caches = []
        for block in range(placement.n_blocks):
            resident = placement.gpu_experts(block).tolist()
            probs = None if calibration_probs is None \
                else calibration_probs[block]
            cache = EvictionPolicyCache(len(resident), policy=policy,
                                        priorities=probs)
            if probs is not None:
                resident.sort(key=lambda expert: probs[expert])
            cache.seed(resident)
            caches.append(cache)
        return cls(placement, caches)

    def admit(self, block: int, expert: int) -> None:
        """Make ``expert`` GPU-resident in a free slot of ``block``.

        A resident expert stays as it is.  A block without slots holds
        nothing: its expert runs from the staging buffer it streamed
        into, and the placement does not change.

        Raises:
            RuntimeError: if every slot of ``block`` is taken; the
                caller must evict an expert first (Algorithm 1 frees
                the cold expert before the hot one comes in).
        """
        placement = self.placement
        slots = self.capacity[block]
        if not slots or placement.is_on_gpu(block, expert):
            return
        if placement.gpu_count(block) >= slots:
            raise RuntimeError(
                f"cannot admit E{expert}@B{block}: all {slots} GPU "
                "slot(s) of the block are taken"
            )
        placement.set_device(block, expert, DeviceKind.GPU)

    def evict(self, block: int, expert: int) -> None:
        """Free ``expert``'s slot in ``block`` (its host copy stays
        valid)."""
        self.placement.set_device(block, expert, DeviceKind.CPU)

    def to_state_dict(self) -> dict:
        """Serialize for a checkpoint; pending ops as timeline indices."""
        return {
            "placement": self.placement.to_state_dict(),
            "caches": (
                None if self.caches is None
                else [cache.to_state_dict() for cache in self.caches]
            ),
            "pending": [
                [block, expert, op.index]
                for (block, expert), op in self.pending.items()
            ],
        }

    @classmethod
    def from_state_dict(cls, payload: dict, ops: list) -> "Residency":
        """Rebuild a residency captured by :meth:`to_state_dict`.

        Args:
            payload: the captured state dict.
            ops: the restored sequence timeline's ops, which the pending
                indices name.
        """
        caches = payload["caches"]
        return cls(
            ExpertPlacement.from_state_dict(payload["placement"]),
            None if caches is None else [
                EvictionPolicyCache.from_state_dict(cache)
                for cache in caches
            ],
            {
                (int(block), int(expert)): ops[int(index)]
                for block, expert, index in payload["pending"]
            },
        )
