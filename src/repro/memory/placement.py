"""Expert placement map: which device holds each (block, expert)."""

from __future__ import annotations

import numpy as np

from repro.hardware.device import DeviceKind
from repro.model.serialization import decode_array, encode_array


class ExpertPlacement:
    """Mutable map of every expert's current residence.

    GPU residence means the expert's weights are in device memory and can
    execute there; CPU residence means they live in host memory and either
    execute on the CPU (Fiddler/DAOP) or must be uploaded first
    (caching/prefetching baselines).
    """

    def __init__(self, n_blocks: int, n_experts: int) -> None:
        if n_blocks < 1 or n_experts < 1:
            raise ValueError("n_blocks and n_experts must be positive")
        self.n_blocks = n_blocks
        self.n_experts = n_experts
        # True = resident on GPU.
        self._on_gpu = np.zeros((n_blocks, n_experts), dtype=bool)

    @classmethod
    def all_on_gpu(cls, n_blocks: int, n_experts: int) -> "ExpertPlacement":
        """Placement with every expert GPU-resident (ECR = 100 %)."""
        placement = cls(n_blocks, n_experts)
        placement._on_gpu[:] = True
        return placement

    @classmethod
    def all_on_cpu(cls, n_blocks: int, n_experts: int) -> "ExpertPlacement":
        """Placement with every expert offloaded to host memory."""
        return cls(n_blocks, n_experts)

    def _check(self, block: int, expert: int) -> None:
        if not 0 <= block < self.n_blocks:
            raise IndexError("block out of range")
        if not 0 <= expert < self.n_experts:
            raise IndexError("expert out of range")

    def is_on_gpu(self, block: int, expert: int) -> bool:
        """Whether the expert currently resides on the GPU."""
        self._check(block, expert)
        return bool(self._on_gpu[block, expert])

    def gpu_mask(self, block: int, experts) -> np.ndarray:
        """GPU residence of an array of one block's experts.

        One indexed read of the residence matrix; returns a bool array
        shaped like ``experts``, True where the expert is GPU-resident.

        Raises:
            IndexError: for an out-of-range block or expert id,
                including a negative one (which numpy would wrap).
        """
        try:
            # Raises for any coordinate outside the matrix, negative too.
            flat = np.ravel_multi_index((block, experts), self._on_gpu.shape)
        except ValueError:
            raise IndexError("block or expert out of range") from None
        return self._on_gpu.take(flat)

    def device_of(self, block: int, expert: int) -> DeviceKind:
        """Current residence as a :class:`DeviceKind`."""
        return DeviceKind.GPU if self.is_on_gpu(block, expert) else DeviceKind.CPU

    def set_device(self, block: int, expert: int, device: DeviceKind) -> None:
        """Move one expert (bookkeeping only; costs live in migration)."""
        self._check(block, expert)
        self._on_gpu[block, expert] = device is DeviceKind.GPU

    def gpu_experts(self, block: int) -> np.ndarray:
        """GPU-resident expert indices of one block."""
        return np.nonzero(self._on_gpu[block])[0]

    def cpu_experts(self, block: int) -> np.ndarray:
        """CPU-resident expert indices of one block."""
        return np.nonzero(~self._on_gpu[block])[0]

    def gpu_count(self, block: int | None = None) -> int:
        """Number of GPU-resident experts (in one block, or overall)."""
        if block is None:
            return int(self._on_gpu.sum())
        self._check(block, 0)
        return int(self._on_gpu[block].sum())

    @property
    def expert_cache_ratio(self) -> float:
        """Fraction of all experts resident on the GPU (the paper's ECR)."""
        return self.gpu_count() / (self.n_blocks * self.n_experts)

    def copy(self) -> "ExpertPlacement":
        """Deep copy of the placement."""
        clone = ExpertPlacement(self.n_blocks, self.n_experts)
        clone._on_gpu = self._on_gpu.copy()
        return clone

    def as_matrix(self) -> np.ndarray:
        """Boolean (n_blocks, n_experts) residence matrix (GPU = True)."""
        return self._on_gpu.copy()

    def to_state_dict(self) -> dict:
        """Serialize the placement for a checkpoint."""
        return {
            "n_blocks": self.n_blocks,
            "n_experts": self.n_experts,
            "on_gpu": encode_array(self._on_gpu),
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "ExpertPlacement":
        """Rebuild a placement captured by :meth:`to_state_dict`."""
        placement = cls(int(payload["n_blocks"]), int(payload["n_experts"]))
        placement._on_gpu = decode_array(payload["on_gpu"]).astype(bool)
        return placement
