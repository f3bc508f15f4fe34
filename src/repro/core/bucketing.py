"""Prompt-length bucketing for gathered prefill cohorts.

Gathered prefill (:meth:`~repro.core.engine.BaseEngine.
step_prefill_batch`) is functionally correct for any mix of prompt
lengths — every sequence's block-work generator yields block-locked and
values are evaluated per-sequence — but its *benefit* depends on the
cohort's rows being comparable: one short prompt gathered with one very
long prompt amortizes almost nothing for the long member while the
pricing still assumes shared launches.  The scheduler therefore groups
admitted prefill sequences into power-of-two length buckets and only
forms cohorts within a bucket, so every member's row count is within 2x
of the others'.

The bucketer is deliberately dumb and deterministic: bucket membership
is a pure function of the prompt length, buckets are ordered by first
appearance, and members keep admission order.  Together those make the
partition reproducible run-to-run and exactly-once over the input —
properties the parity audits and checkpoint/resume machinery rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Smallest bucket; prompts shorter than this share one bucket so tiny
#: prompts (which benefit most per row from sharing fixed overheads)
#: still cohort together.
MIN_BUCKET = 16


def bucket_key(n_tokens: int, min_bucket: int = MIN_BUCKET) -> int:
    """Power-of-two ceiling bucket of a prompt length.

    Args:
        n_tokens: prompt length in tokens (positive).
        min_bucket: floor bucket; lengths at or below it map there.

    Returns:
        The smallest power of two >= ``n_tokens``, clamped below at
        ``min_bucket``.
    """
    if n_tokens < 1:
        raise ValueError("n_tokens must be positive")
    ceiling = 1 << (int(n_tokens) - 1).bit_length()
    return max(ceiling, min_bucket)


@dataclass(frozen=True)
class PrefillBucket:
    """One prompt-length cohort candidate.

    Attributes:
        key: the shared :func:`bucket_key` of every member.
        indices: member positions in the bucketer's input, in input
            (admission) order.
    """

    key: int
    indices: tuple[int, ...]


def bucket_prompt_lengths(lengths, min_bucket: int = MIN_BUCKET) -> list:
    """Partition prompt lengths into :class:`PrefillBucket` groups.

    Args:
        lengths: iterable of prompt lengths, in admission order.
        min_bucket: passed through to :func:`bucket_key`.

    Returns:
        Buckets ordered by first appearance; each input index appears in
        exactly one bucket, and within a bucket indices keep input
        order.  The partition is a pure function of ``lengths`` — no
        randomness, no iteration-order dependence.
    """
    groups: dict[int, list[int]] = {}
    for idx, n_tokens in enumerate(lengths):
        groups.setdefault(bucket_key(n_tokens, min_bucket), []).append(idx)
    return [
        PrefillBucket(key=key, indices=tuple(indices))
        for key, indices in groups.items()
    ]
