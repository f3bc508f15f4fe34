"""Top-k expert routing (the MoE gating function)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.layers import Linear, softmax


@dataclass
class RoutingDecision:
    """Routing of a batch of tokens to experts.

    Attributes:
        logits: raw router logits, shape ``(n_tokens, n_experts)``.
        experts: selected expert indices, shape ``(n_tokens, top_k)``,
            sorted by descending logit.
        weights: mixing weights (softmax over the selected logits),
            shape ``(n_tokens, top_k)``.
    """

    logits: np.ndarray
    experts: np.ndarray
    weights: np.ndarray

    @property
    def n_tokens(self) -> int:
        """Number of routed tokens."""
        return self.logits.shape[0]

    @property
    def top_k(self) -> int:
        """Number of experts activated per token."""
        return self.experts.shape[1]


class Router:
    """Linear gating function producing top-k expert selections."""

    def __init__(self, d_model: int, n_experts: int, top_k: int,
                 rng: np.random.Generator) -> None:
        if not 0 < top_k <= n_experts:
            raise ValueError("top_k must be in (0, n_experts]")
        self.gate = Linear(d_model, n_experts, rng)
        self.n_experts = n_experts
        self.top_k = top_k

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Raw router logits for hidden states ``x``."""
        return self.gate(x)

    def route(self, x: np.ndarray) -> RoutingDecision:
        """Full top-k routing decision for hidden states ``x``."""
        logits = self.logits(np.atleast_2d(x))
        return self.route_from_logits(logits)

    def route_from_logits(self, logits: np.ndarray) -> RoutingDecision:
        """Select top-k experts and mixing weights from precomputed logits."""
        logits = np.atleast_2d(logits)
        order = np.argsort(-logits, axis=-1, kind="stable")
        experts = order[:, : self.top_k]
        selected = np.take_along_axis(logits, experts, axis=-1)
        weights = softmax(selected, axis=-1)
        return RoutingDecision(logits=logits, experts=experts, weights=weights)

    @staticmethod
    def renormalize(logits_row: np.ndarray, experts: np.ndarray) -> np.ndarray:
        """Mixing weights for an arbitrary expert subset of one token.

        Used when the executed expert set deviates from the argmax set
        (graceful degradation): the weights are the softmax over the chosen
        experts' logits, mirroring Mixtral's top-k renormalization.
        """
        chosen = logits_row[experts]
        return softmax(chosen, axis=-1)

    @property
    def n_params(self) -> int:
        """Number of parameters in the gate."""
        return self.gate.n_params


def group_by_expert(experts_per_token: list) -> dict:
    """Group one block's routing selections by expert, in plain ints.

    Args:
        experts_per_token: ``[n_tokens][top_k]`` selected expert ids as
            Python ints (``RoutingDecision.experts.tolist()``).

    Returns:
        ``{expert: (token_idx, slots)}`` in ascending expert order — the
        order of ``np.unique`` over the selections.  ``token_idx`` picks,
        ascending, the token rows the expert's execution reads: ``None``
        when every token routed to it (the spelling
        :meth:`~repro.model.moe_block.MoEBlock.expert_forward` keys a
        full selection on), else an int64 array.  ``slots`` lists every
        ``(token, slot, row)`` the output scatters back to, ``row``
        indexing the selected rows.  A router selects an expert at most
        once per token, but a hand-built (or degraded) selection may
        repeat an id: every matching slot gets the output so its weight
        is honoured.
    """
    by_expert: dict = {}
    for t, selected in enumerate(experts_per_token):
        for slot, expert in enumerate(selected):
            entry = by_expert.get(expert)
            if entry is None:
                entry = by_expert[expert] = ([], [])
            tokens, slots = entry
            if not tokens or tokens[-1] != t:
                tokens.append(t)
            slots.append((t, slot, len(tokens) - 1))
    n_tokens = len(experts_per_token)
    return {
        expert: (
            None if len(tokens) == n_tokens
            else np.array(tokens, dtype=np.int64),
            slots,
        )
        for expert, (tokens, slots) in sorted(by_expert.items())
    }
