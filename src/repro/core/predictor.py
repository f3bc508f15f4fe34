"""Next-layer expert prediction (paper §IV-C and observation (3)).

The predictor applies block ``i+1``'s gating function to the hidden states
produced by block ``i``'s non-MoE computation.  Because transformer layers
are residual, consecutive hidden states are strongly correlated and the
prediction is accurate once the residual stream has stabilized (after the
first few blocks) -- the same mechanism the paper measures at 84.11 %
average accuracy for Mixtral 8x7B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.transformer import MoETransformer

PREDICTION_START_BLOCK_DEFAULT = 4


@dataclass(frozen=True)
class ExpertPrediction:
    """A predicted routing for one upcoming block."""

    block: int
    logits: np.ndarray
    experts: np.ndarray  # (top_k,) descending score


class NextLayerPredictor:
    """Predicts block ``i+1``'s expert selection from block ``i``'s state."""

    def __init__(self, model: MoETransformer,
                 start_block: int = PREDICTION_START_BLOCK_DEFAULT) -> None:
        if start_block < 0:
            raise ValueError("start_block must be non-negative")
        self.model = model
        self.start_block = start_block

    def can_predict_from(self, block_idx: int) -> bool:
        """Whether a prediction issued at ``block_idx`` is usable.

        The paper enables prediction for ``i >= start_block`` and falls
        back to the original gate for earlier blocks, where the residual
        stream still changes too quickly (Fig. 5).
        """
        return (
            block_idx >= self.start_block
            and block_idx + 1 < self.model.n_blocks
        )

    def predict(self, block_idx: int,
                h_att: np.ndarray) -> ExpertPrediction:
        """Predict block ``block_idx + 1`` from block ``block_idx``'s state.

        Args:
            block_idx: the block whose non-MoE output is available.
            h_att: that block's post-attention hidden state ``(1, d)``.
        """
        if block_idx + 1 >= self.model.n_blocks:
            raise ValueError("no next block to predict")
        next_block = self.model.blocks[block_idx + 1]
        return self.from_logits(
            block_idx, next_block.gate_logits(np.atleast_2d(h_att))[0]
        )

    def from_logits(self, block_idx: int,
                    logits: np.ndarray) -> ExpertPrediction:
        """Prediction from block ``block_idx + 1``'s gate logits row.

        Engines evaluate that gate on block ``block_idx``'s state in the
        cohort's stacked gate call and hand the row in here, so
        :meth:`predict` is this plus the gate evaluation.
        """
        experts = np.argsort(-logits, kind="stable")[: self.model.top_k]
        return ExpertPrediction(
            block=block_idx + 1, logits=logits, experts=experts
        )
