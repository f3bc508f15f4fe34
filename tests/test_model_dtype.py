"""The functional model runs in float32 end to end.

Every weight is float32, and so is every stage output a forward pass
produces.  A float64 weight would not change a token (the stages are
computed in float64 and the KV cache rounds back to float32), but it
doubles the weights' memory and runs every matmul, score and softmax in
double precision.  Under NumPy 2 (NEP 50) multiplying a float32 array by
a ``np.float64`` scalar such as ``np.sqrt(d)`` yields float64, which is
how the weights silently became float64 once.
"""

import numpy as np
import pytest

from repro import build_mixtral_8x7b_sim, build_phi_3_5_moe_sim, build_tiny_moe
from repro.model.quantization import quantize_experts
from repro.perf import TensorCache

BUILDERS = {
    "tiny": build_tiny_moe,
    "mixtral": build_mixtral_8x7b_sim,
    "phi": build_phi_3_5_moe_sim,
}


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def model(request):
    return BUILDERS[request.param](seed=0).model


def weight_dtypes(model) -> set:
    arrays = [model.embedding, model.final_norm.gain]
    for block in model.blocks:
        arrays.extend(block.weight_arrays())
    return {array.dtype for array in arrays}


def stage_outputs(model) -> dict:
    """Every stage's output of a 3-token prefill plus one decode step
    through block 0, and the LM head."""
    block = model.blocks[0]
    kv = block.attention.new_cache()
    outputs = {}
    for name, tokens, positions in (("prefill", [1, 2, 3], [0, 1, 2]),
                                    ("decode", [4], [3])):
        h = model.embed(np.asarray(tokens))
        [h_att] = block.attention_rows([h], [kv], [np.asarray(positions)])
        [logits] = block.gate_logits_rows([h_att])
        decision = block.route_from_logits(logits)
        experts = np.stack([
            block.expert_forward_rows(int(e), [(h_att, [t])])[0][0]
            for t, row in enumerate(decision.experts) for e in row
        ]).reshape(len(tokens), model.top_k, -1)
        mixed = block.combine(h_att, experts, decision.weights)
        outputs.update({
            f"{name} h_att": h_att,
            f"{name} keys": kv.keys,
            f"{name} values": kv.values,
            f"{name} gate logits": logits,
            f"{name} routing weights": decision.weights,
            f"{name} expert outputs": experts,
            f"{name} combine": mixed,
            f"{name} lm logits": model.lm_logits_rows([mixed[-1]])[0],
        })
    return outputs


def assert_float32(outputs: dict) -> None:
    wrong = {name: str(array.dtype) for name, array in outputs.items()
             if array.dtype != np.float32}
    assert not wrong


def test_weights_are_float32(model):
    assert weight_dtypes(model) == {np.dtype(np.float32)}


def test_stage_outputs_are_float32(model):
    assert_float32(stage_outputs(model))


def test_cached_stage_outputs_are_float32(model):
    cache = TensorCache()
    model.attach_compute_cache(cache)
    try:
        assert_float32(stage_outputs(model))  # misses store the values
        hits = cache.hits
        assert_float32(stage_outputs(model))  # hits return them
        assert cache.hits > hits
    finally:
        model.detach_compute_cache()


def test_quantized_weights_stay_float32():
    model = build_tiny_moe(seed=0).model
    quantize_experts(model, bits=4)
    assert weight_dtypes(model) == {np.dtype(np.float32)}
