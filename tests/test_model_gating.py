"""Unit tests for the top-k router."""

import numpy as np
import pytest

from repro.model.gating import Router, group_by_expert


@pytest.fixture()
def router(rng):
    return Router(d_model=16, n_experts=8, top_k=2, rng=rng)


def test_invalid_top_k(rng):
    with pytest.raises(ValueError):
        Router(16, 4, 0, rng)
    with pytest.raises(ValueError):
        Router(16, 4, 5, rng)


def test_route_shapes(router, rng):
    x = rng.standard_normal((5, 16))
    decision = router.route(x)
    assert decision.logits.shape == (5, 8)
    assert decision.experts.shape == (5, 2)
    assert decision.weights.shape == (5, 2)
    assert decision.n_tokens == 5
    assert decision.top_k == 2


def test_experts_are_argmax(router, rng):
    x = rng.standard_normal((10, 16))
    decision = router.route(x)
    for t in range(10):
        top = set(np.argsort(-decision.logits[t])[:2])
        assert set(decision.experts[t]) == top


def test_experts_sorted_descending(router, rng):
    x = rng.standard_normal((10, 16))
    decision = router.route(x)
    for t in range(10):
        logits = decision.logits[t][decision.experts[t]]
        assert logits[0] >= logits[1]


def test_weights_softmax_over_selected(router, rng):
    x = rng.standard_normal((4, 16))
    decision = router.route(x)
    np.testing.assert_allclose(decision.weights.sum(axis=1), np.ones(4),
                               rtol=1e-6)
    # Higher-logit expert gets the larger weight.
    assert np.all(decision.weights[:, 0] >= decision.weights[:, 1])


def test_route_from_logits_matches_route(router, rng):
    x = rng.standard_normal((3, 16))
    a = router.route(x)
    b = router.route_from_logits(router.logits(x))
    np.testing.assert_array_equal(a.experts, b.experts)
    np.testing.assert_allclose(a.weights, b.weights)


def test_renormalize_arbitrary_subset():
    logits = np.array([3.0, 1.0, 2.0, 0.0])
    weights = Router.renormalize(logits, np.array([0, 3]))
    assert weights.sum() == pytest.approx(1.0)
    assert weights[0] > weights[1]
    # Matches a direct softmax over the chosen logits.
    expected = np.exp([3.0, 0.0]) / np.exp([3.0, 0.0]).sum()
    np.testing.assert_allclose(weights, expected, rtol=1e-6)


def test_1d_input_promoted(router, rng):
    x = rng.standard_normal(16)
    decision = router.route(x)
    assert decision.experts.shape == (1, 2)


def test_topk_selection_never_repeats_an_expert(rng):
    """argsort top-k yields k *distinct* experts for every token.

    The engines' combine step relies on this (a duplicate id would mean
    one expert claiming two weight slots); the property must hold even
    with heavily tied logits.
    """
    router = Router(d_model=16, n_experts=4, top_k=3, rng=rng)
    x = rng.standard_normal((256, 16))
    decision = router.route(x)
    for row in decision.experts:
        assert len(set(row.tolist())) == len(row)
    # Ties everywhere: identical logits still route to distinct experts.
    tied = router.route_from_logits(np.zeros((8, 4)))
    for row in tied.experts:
        assert len(set(row.tolist())) == len(row)


def _numpy_grouping(experts_per_token: np.ndarray) -> dict:
    """Reference grouping: the ``np.unique``/mask spelling it replaces."""
    groups = {}
    for expert in np.unique(experts_per_token):
        mask = experts_per_token == expert
        token_idx = np.nonzero(mask.any(axis=1))[0]
        slots = [
            (int(t), int(slot), row)
            for row, t in enumerate(token_idx)
            for slot in np.nonzero(mask[t])[0]
        ]
        groups[int(expert)] = (token_idx, slots)
    return groups


def test_group_by_expert_matches_numpy_grouping(rng):
    for _ in range(200):
        n_tokens = int(rng.integers(1, 9))
        top_k = int(rng.integers(1, 4))
        # Small id range so tokens repeat ids across (and within) rows.
        experts = rng.integers(0, 5, size=(n_tokens, top_k))
        groups = group_by_expert(experts.tolist())
        reference = _numpy_grouping(experts)
        assert list(groups) == list(reference)
        assert all(type(e) is int for e in groups)
        for expert, (token_idx, slots) in groups.items():
            ref_idx, ref_slots = reference[expert]
            assert slots == ref_slots
            # A full selection is spelled None, a partial one as int64.
            if len(ref_idx) == n_tokens:
                assert token_idx is None
            else:
                assert token_idx.dtype == np.int64
                np.testing.assert_array_equal(token_idx, ref_idx)


def test_group_by_expert_repeated_id_scatters_to_every_slot():
    groups = group_by_expert([[3, 3], [1, 3]])
    assert list(groups) == [1, 3]
    token_idx, slots = groups[1]
    np.testing.assert_array_equal(token_idx, [1])
    assert slots == [(1, 0, 0)]
    assert groups[3] == (None, [(0, 0, 0), (0, 1, 0), (1, 1, 1)])
