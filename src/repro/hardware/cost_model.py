"""Op-level latency model at paper-scale dimensions.

Each inference engine executes the small functional model for *values* but
charges simulated time for every op as if the paper-scale model were
running: weights and activations sized by :class:`repro.model.config.ArchSpec`,
throughput by the :class:`repro.hardware.device.DeviceSpec` rooflines, and
transfers by the :class:`repro.hardware.link.LinkSpec`.

Decode-stage ops at batch size one are memory-bandwidth-bound (every weight
byte is read once per token); prefill ops over hundreds of tokens shift
toward the compute roof, which is why CPU prefill of a busy expert is
expensive and why the paper maps hot experts to the GPU before decode.

The same roofline prices gathered cross-sequence execution: a dense op
over ``n`` token rows reads its weights once instead of ``n`` times, so
in the bandwidth-bound decode regime one launch over a cohort's rows
costs barely more than a solo one until ``n`` crosses into the
compute-bound regime.  A block's attention splits into that shareable
weight part (:meth:`CostModel.attention_weight_time`) and a
per-sequence context part (:meth:`CostModel.attention_context_time`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.device import DeviceSpec
from repro.hardware.link import LinkSpec
from repro.hardware.platform import Platform
from repro.model.config import ArchSpec


@dataclass(frozen=True)
class CostModel:
    """Latency/energy cost model binding an architecture to a platform."""

    arch: ArchSpec
    platform: Platform

    # ---- generic helpers -----------------------------------------------------

    @property
    def link(self) -> LinkSpec:
        """The platform's CPU<->GPU link."""
        return self.platform.link

    def _weights_op_time(self, device: DeviceSpec, weight_params: int,
                         n_tokens: int, extra_bytes: float = 0.0) -> float:
        """Roofline time of a dense op over ``weight_params`` weights."""
        flops = 2.0 * weight_params * n_tokens
        bytes_touched = (
            weight_params * self.arch.dtype_bytes
            + extra_bytes
            + 2.0 * n_tokens * self.arch.hidden_state_bytes
        )
        return device.op_time(flops, bytes_touched)

    # ---- per-op latencies ----------------------------------------------------

    def embed_time(self, device: DeviceSpec, n_tokens: int) -> float:
        """Embedding lookup for ``n_tokens`` tokens."""
        bytes_touched = n_tokens * self.arch.hidden_state_bytes * 2.0
        return device.op_time(0.0, bytes_touched)

    def non_moe_time(self, device: DeviceSpec, n_tokens: int,
                     context_len: int) -> float:
        """One block's non-MoE part: norms + attention over the KV cache."""
        return (self.attention_weight_time(device, n_tokens)
                + self.attention_context_time(device, n_tokens, context_len))

    def attention_weight_time(self, device: DeviceSpec,
                              n_tokens: int) -> float:
        """QKV/O projections over ``n_tokens`` rows: the weight-bound part
        of :meth:`non_moe_time`, which one gathered launch shares."""
        return self._weights_op_time(
            device, self.arch.attention_params, n_tokens
        )

    def attention_context_time(self, device: DeviceSpec, n_tokens: int,
                               context_len: int) -> float:
        """Score/value work of ``n_tokens`` rows against ``context_len``
        cached tokens plus the KV-cache traffic: the per-sequence part of
        :meth:`non_moe_time`, which never amortizes across sequences."""
        hd = self.arch.head_dim
        score_flops = 4.0 * n_tokens * context_len * self.arch.n_heads * hd
        kv_bytes = context_len * self.arch.kv_bytes_per_token_per_block
        return device.op_time(score_flops, kv_bytes)

    def gate_time(self, device: DeviceSpec, n_tokens: int) -> float:
        """Router (gating MLP) over ``n_tokens`` tokens."""
        return self._weights_op_time(device, self.arch.gate_params, n_tokens)

    def expert_time(self, device: DeviceSpec, n_tokens: int) -> float:
        """One expert FFN over ``n_tokens`` tokens."""
        return self._weights_op_time(device, self.arch.expert_params, n_tokens)

    def lm_head_time(self, device: DeviceSpec, n_tokens: int) -> float:
        """Final norm + weight-tied LM head."""
        return self._weights_op_time(
            device, self.arch.embedding_params, n_tokens
        )

    def block_time(self, device: DeviceSpec, n_tokens: int,
                   context_len: int) -> float:
        """Whole-block latency with top-k experts resident (paper Table I)."""
        return (
            self.non_moe_time(device, n_tokens, context_len)
            + self.gate_time(device, n_tokens)
            + self.arch.top_k * self.expert_time(device, n_tokens)
        )

    # ---- transfers -----------------------------------------------------------

    def expert_transfer_time(self, quant_ratio: float = 1.0) -> float:
        """Moving one expert's weights across the link.

        ``quant_ratio`` scales the payload (e.g. 0.25 for 4-bit quantized
        transfers as used by Mixtral-Offloading).
        """
        if not 0 < quant_ratio <= 1:
            raise ValueError("quant_ratio must be in (0, 1]")
        return self.link.weight_transfer_time(
            self.arch.expert_bytes * quant_ratio
        )

    def activation_transfer_time(self, n_tokens: int) -> float:
        """Moving ``n_tokens`` hidden-state vectors across the link."""
        return self.link.activation_transfer_time(
            n_tokens * self.arch.hidden_state_bytes
        )

    def dequant_time(self, device: DeviceSpec, quant_ratio: float) -> float:
        """On-device dequantization of one expert after a quantized upload."""
        bytes_touched = self.arch.expert_bytes * (1.0 + quant_ratio)
        return device.op_time(self.arch.expert_params, bytes_touched)

    # ---- capacity ------------------------------------------------------------

    def gpu_expert_slots(self, reserve_fraction: float = 0.1) -> int:
        """Experts that fit on the GPU beside all non-MoE weights."""
        non_expert_bytes = (
            self.arch.n_blocks * self.arch.block_non_expert_bytes
            + self.arch.embedding_params * self.arch.dtype_bytes
        )
        slots = self.platform.gpu_expert_capacity(
            non_expert_bytes, self.arch.expert_bytes, reserve_fraction
        )
        return min(slots, self.arch.n_blocks * self.arch.n_experts)
