"""Routing-trace recording.

Engines record every routing decision (which experts each token activated
at each block, in which phase) into an :class:`ActivationTrace`; the
similarity and prediction analyses of the paper's observations section are
computed from these traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PREFILL = "prefill"
DECODE = "decode"
PHASES = (PREFILL, DECODE)


def _int_tuple(experts) -> tuple[int, ...]:
    """Expert ids (a scalar, list or array) as a tuple of plain ints."""
    return tuple(map(int, np.atleast_1d(experts).tolist()))


@dataclass
class RoutingEvent:
    """Expert activations of one token at one block."""

    phase: str
    block: int
    token_pos: int
    experts: tuple[int, ...]
    executed_experts: tuple[int, ...] | None = None
    predicted: bool = False

    def to_state_dict(self) -> dict:
        """Serialize the event for a checkpoint (all plain data)."""
        return {
            "phase": self.phase,
            "block": self.block,
            "token_pos": self.token_pos,
            "experts": list(self.experts),
            "executed_experts": (
                None if self.executed_experts is None
                else list(self.executed_experts)
            ),
            "predicted": self.predicted,
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "RoutingEvent":
        """Rebuild an event captured by :meth:`to_state_dict`."""
        executed = payload["executed_experts"]
        return cls(
            phase=payload["phase"],
            block=int(payload["block"]),
            token_pos=int(payload["token_pos"]),
            experts=tuple(int(e) for e in payload["experts"]),
            executed_experts=(
                None if executed is None else tuple(int(e) for e in executed)
            ),
            predicted=bool(payload["predicted"]),
        )


@dataclass
class ActivationTrace:
    """Accumulated routing events for one generated sequence."""

    n_blocks: int
    n_experts: int
    events: list[RoutingEvent] = field(default_factory=list)

    def record(self, phase: str, block: int, token_pos: int,
               experts, executed_experts=None, predicted: bool = False) -> None:
        """Append one routing event."""
        if phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}")
        self.events.append(
            RoutingEvent(
                phase=phase,
                block=block,
                token_pos=token_pos,
                experts=_int_tuple(experts),
                executed_experts=(
                    None if executed_experts is None
                    else _int_tuple(executed_experts)
                ),
                predicted=predicted,
            )
        )

    def to_state_dict(self) -> dict:
        """Serialize the trace for a checkpoint."""
        return {
            "n_blocks": self.n_blocks,
            "n_experts": self.n_experts,
            "events": [event.to_state_dict() for event in self.events],
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "ActivationTrace":
        """Rebuild a trace captured by :meth:`to_state_dict`."""
        trace = cls(int(payload["n_blocks"]), int(payload["n_experts"]))
        trace.events.extend(
            RoutingEvent.from_state_dict(event)
            for event in payload["events"]
        )
        return trace

    # ---- aggregation ---------------------------------------------------------

    def activation_counts(self, phase: str | None = None,
                          executed: bool = False) -> np.ndarray:
        """Per-(block, expert) activation counts.

        Args:
            phase: restrict to one phase, or ``None`` for both.
            executed: count the experts actually executed (after graceful
                degradation) instead of the gate's selections.
        """
        counts = np.zeros((self.n_blocks, self.n_experts), dtype=np.int64)
        for event in self.events:
            if phase is not None and event.phase != phase:
                continue
            experts = event.experts
            if executed and event.executed_experts is not None:
                experts = event.executed_experts
            for expert in experts:
                counts[event.block, expert] += 1
        return counts

    def activation_matrix(self, phase: str | None = None,
                          executed: bool = False) -> np.ndarray:
        """Activation-probability matrix: counts / tokens per block.

        This is the paper's :math:`P_{i,j}` / :math:`D_{i,j}`: the ratio of
        tokens routed to expert ``j`` at block ``i`` to the total tokens
        processed by that block.
        """
        counts = self.activation_counts(phase, executed).astype(np.float64)
        tokens = self.token_count(phase)
        if tokens == 0:
            return counts
        return counts / tokens

    def token_count(self, phase: str | None = None) -> int:
        """Distinct token positions recorded (at block 0) for a phase."""
        positions = {
            event.token_pos
            for event in self.events
            if event.block == 0 and (phase is None or event.phase == phase)
        }
        return len(positions)

    def decode_window_matrices(self, window: int) -> list[np.ndarray]:
        """Activation matrices over consecutive decode windows.

        Used for the paper's §VI-B analysis: expert-activation variation
        during decoding measured with a 15-token window.
        """
        if window < 1:
            raise ValueError("window must be positive")
        decode_positions = sorted(
            {e.token_pos for e in self.events if e.phase == DECODE}
        )
        if not decode_positions:
            return []
        pos_rank = {p: i for i, p in enumerate(decode_positions)}
        n_windows = (len(decode_positions) + window - 1) // window
        counts = np.zeros(
            (n_windows, self.n_blocks, self.n_experts), dtype=np.float64
        )
        window_tokens = np.zeros(n_windows, dtype=np.float64)
        seen_block0 = set()
        for event in self.events:
            if event.phase != DECODE:
                continue
            w = pos_rank[event.token_pos] // window
            for expert in event.experts:
                counts[w, event.block, expert] += 1
            if event.block == 0 and event.token_pos not in seen_block0:
                seen_block0.add(event.token_pos)
                window_tokens[w] += 1
        matrices = []
        for w in range(n_windows):
            tokens = max(window_tokens[w], 1.0)
            matrices.append(counts[w] / tokens)
        return matrices
