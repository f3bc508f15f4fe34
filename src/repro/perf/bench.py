"""Cold-vs-warm counted work of the forward-compute cache.

This is the cache's self-check (``repro bench-compute``): it runs the
two workloads the cache was built for — the cross-engine differential
audit and a fig10-style ECR sweep — twice each against one shared
:class:`~repro.perf.tensor_cache.TensorCache`, and records the counted
work of the cold (first, cache-filling) and warm (second, cache-served)
passes: per-stage hits, misses and identity-memo hits, plus the cache's
occupancy counters.  Every field is deterministic, so the committed
``BENCH_compute.json`` is regenerated byte for byte by the test suite
(``tests/test_bench_artifacts.py``).  The warm pass must forward
nothing: every warm stage has zero misses and the cache never evicts.

The host cost of the cache is not measured here; the repository
benchmark under ``bench/`` times it on the ``paper-b1-sweep`` workload.
"""

from __future__ import annotations

from repro.audit.differential import run_differential_audit
from repro.core import build_engine
from repro.perf.tensor_cache import DEFAULT_MAX_BYTES, TensorCache
from repro.workloads import SHAREGPT, SequenceGenerator

#: Fig. 10's expert-cache-ratio sweep points.
SWEEP_ECRS = (0.25, 0.375, 0.50, 0.625)

#: Fig. 10's engine pair (the paper's headline comparison).
SWEEP_ENGINES = ("fiddler", "daop")


def _stage_snapshot(cache: TensorCache) -> dict:
    """Copy of the per-stage hit/miss/memo counters."""
    return {
        stage: (c.hits, c.misses, c.memo_hits)
        for stage, c in cache.stage_counters.items()
    }


def _stage_delta(before: dict, after: dict) -> dict:
    """Per-stage hit rates accumulated between two snapshots.

    Identity-memo hits (:meth:`TensorCache.identity_memo`) count toward
    the stage's hit rate — a memoized call avoided recomputation just
    like a content hit, only cheaper.
    """
    out = {}
    for stage, (hits, misses, memo_hits) in sorted(after.items()):
        h0, m0, n0 = before.get(stage, (0, 0, 0))
        d_hits, d_misses, d_memo = hits - h0, misses - m0, memo_hits - n0
        lookups = d_hits + d_misses + d_memo
        out[stage] = {
            "hits": d_hits,
            "misses": d_misses,
            "memo_hits": d_memo,
            "hit_rate": (d_hits + d_memo) / lookups if lookups else 0.0,
        }
    return out


def _cold_warm_passes(run, cache: TensorCache) -> dict:
    """Run ``run()`` twice (cold, then warm) against a fresh-state cache.

    Returns the section payload: per-pass stage counters and the cache's
    final stats.
    """
    run()
    cold_stages = _stage_snapshot(cache)
    run()
    return {
        "stages_cold": _stage_delta({}, cold_stages),
        "stages_warm": _stage_delta(cold_stages, _stage_snapshot(cache)),
        "cache": cache.stats(),
    }


def warm_pass_forwarded(section: dict) -> bool:
    """True when a section's warm pass recomputed anything.

    A warm pass re-runs the cold pass's workload against the filled
    cache, so any warm stage miss, or any eviction that could cause one,
    means the cache failed to serve it.
    """
    return (section["cache"]["evictions"] > 0
            or any(s["misses"] for s in section["stages_warm"].values()))


def bench_compute(
    bundle,
    platform,
    seeds=(0, 1, 2),
    prompt_len: int = 16,
    max_new_tokens: int = 12,
    expert_cache_ratio: float = 0.5,
    calibration_probs=None,
    sweep_len: int = 32,
) -> dict:
    """Record cold-vs-warm counted work for the audit and sweep workloads.

    Each section gets its own shared :class:`TensorCache` and is executed
    twice: the cold pass fills the cache, the warm pass re-runs the
    identical workload and is served from it.  The differential audit
    runs with ``audit_invariants=False`` — the post-hoc invariant audit
    is bookkeeping, not forward compute, and is not what the cache
    serves.

    Returns a JSON-serializable payload (the ``BENCH_compute.json``
    schema) with the configuration, per-pass per-stage counters and the
    cache occupancy/eviction counters of each section.
    """
    audit_cache = TensorCache(max_bytes=DEFAULT_MAX_BYTES)

    def run_audit() -> None:
        report = run_differential_audit(
            bundle, platform, seeds=seeds, prompt_len=prompt_len,
            max_new_tokens=max_new_tokens,
            expert_cache_ratio=expert_cache_ratio,
            calibration_probs=calibration_probs,
            audit_invariants=False, compute_cache=audit_cache,
        )
        if not report.ok:
            raise AssertionError(
                "differential audit failed during bench-compute:\n"
                + report.format()
            )

    audit_section = _cold_warm_passes(run_audit, audit_cache)

    sweep_cache = TensorCache(max_bytes=DEFAULT_MAX_BYTES)
    generator = SequenceGenerator(SHAREGPT, bundle.vocab, seed=5)
    sequence = generator.sample_sequence(sweep_len, sweep_len, sample_idx=0)

    def run_sweep_grid() -> None:
        bundle.model.attach_compute_cache(sweep_cache)
        try:
            for ecr in SWEEP_ECRS:
                for name in SWEEP_ENGINES:
                    engine = build_engine(
                        name, bundle, platform, expert_cache_ratio=ecr,
                        calibration_probs=calibration_probs,
                    )
                    engine.generate(
                        sequence.prompt_tokens, sweep_len,
                        forced_tokens=sequence.continuation_tokens,
                    )
        finally:
            bundle.model.detach_compute_cache()

    sweep_section = _cold_warm_passes(run_sweep_grid, sweep_cache)

    return {
        "config": {
            "model": bundle.arch.name,
            "n_blocks": bundle.model.n_blocks,
            "sim_d_model": bundle.model.profile.sim.d_model,
            "sim_d_ff": bundle.model.profile.sim.d_ff,
            "seeds": [int(s) for s in seeds],
            "prompt_len": prompt_len,
            "max_new_tokens": max_new_tokens,
            "expert_cache_ratio": expert_cache_ratio,
            "sweep_len": sweep_len,
            "sweep_ecrs": [float(e) for e in SWEEP_ECRS],
            "sweep_engines": list(SWEEP_ENGINES),
            "max_bytes": DEFAULT_MAX_BYTES,
        },
        "differential_audit": audit_section,
        "ecr_sweep": sweep_section,
    }
