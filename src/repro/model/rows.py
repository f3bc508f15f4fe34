"""Stacked evaluation of row-wise stages across cohort members.

A gathered engine round evaluates the same stage (a projection, a norm,
an expert FFN, the LM head) for several sequences at once.  Concatenating
their rows (``vstack``) would change every member's values at the last
ulp, because a BLAS GEMM over more rows may reduce in a different order.
*Stacking* members of equal row count along a new leading axis does not:
``np.matmul`` over an ``(n, r, d)`` operand runs the very BLAS call of the
``(r, d)`` case once per member, and numpy's reductions and elementwise
ufuncs along the trailing axis are per-row too.  Each member's result is
therefore byte-identical to its solo evaluation (pinned by
``tests/test_model_stacked_rows.py`` on the installed BLAS) at a fraction
of the per-call overhead.

A single member is a stack of one, so solo and gathered execution share
this one path.
"""

from __future__ import annotations

import numpy as np


def row_groups(arrays: list) -> list:
    """Indices of ``arrays`` grouped by equal dtype and shape.

    Groups are ordered by first appearance and keep input order, so a
    stacked evaluation over them is deterministic.
    """
    groups: dict = {}
    for i, array in enumerate(arrays):
        groups.setdefault((array.dtype, array.shape), []).append(i)
    return list(groups.values())


def stack(arrays: list) -> np.ndarray:
    """Equal-shape arrays stacked along a new leading axis.

    ``np.array`` over the list (a third of ``np.stack``'s overhead); a
    single array is stacked as a view.
    """
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def stack_rows(fn, arrays: list) -> list:
    """Apply a row-wise ``fn`` to each array, one stacked call per shape.

    Args:
        fn: maps an ``(m, r, d)`` stack to an ``(m, ...)`` result whose
            item ``j`` depends only on input item ``j``.
        arrays: per-member inputs of shape ``(r, d)``.

    Returns:
        ``fn``'s item per member, aligned with ``arrays``.  Members of
        equal dtype and shape share one call; items are views into the
        stacked result.
    """
    if len(arrays) == 1:
        return [fn(arrays[0][None])[0]]
    out: list = [None] * len(arrays)
    for idx in row_groups(arrays):
        for i, y in zip(idx, fn(stack([arrays[i] for i in idx]))):
            out[i] = y
    return out


def cached_rows(cache, stage: str, keys: list, compute) -> tuple[list, list]:
    """Serve members from a compute cache, computing the misses at once.

    Lookups run per member in member order; the misses are computed by
    one ``compute(miss_indices)`` call (which stacks them) and stored back
    per member.  A member whose key repeats an earlier miss of the same
    call is looked up again after that miss is stored, so it counts as
    the hit it would have been had the members run one after another.

    Args:
        cache: duck-typed ``repro.perf.TensorCache`` (``get``/``put``).
        stage: the cache stage the lookups are counted under.
        keys: per-member cache key; ``None`` bypasses the cache for that
            member (computed, never stored).
        compute: maps a list of member indices to their values, aligned.

    Returns:
        ``(values, served)``: each member's value (a stored read-only
        copy once cached) and whether it was served rather than
        computed for that member — callers replay a stage's side
        effects (the attention's KV append) for served members.
    """
    if len(keys) == 1:
        # One member (a solo call) cannot repeat a key.
        key = keys[0]
        hit = None if key is None else cache.get(key, stage)
        if hit is not None:
            return [hit], [True]
        value = compute([0])[0]
        return [value if key is None else cache.put(key, stage, value)], [False]
    n = len(keys)
    values: list = [None] * n
    served = [False] * n
    misses: list = []
    first_miss: dict = {}
    repeats: list = []
    for i, key in enumerate(keys):
        if key is None:
            misses.append(i)
        elif key in first_miss:
            repeats.append(i)
        else:
            hit = cache.get(key, stage)
            if hit is None:
                first_miss[key] = i
                misses.append(i)
            else:
                values[i] = hit
                served[i] = True
    if misses:
        for i, value in zip(misses, compute(misses)):
            key = keys[i]
            values[i] = value if key is None else cache.put(key, stage, value)
    for i in repeats:
        # An oversized value is never stored: reuse the first miss's.
        hit = cache.get(keys[i], stage)
        values[i] = values[first_miss[keys[i]]] if hit is None else hit
        served[i] = True
    return values, served
