"""Metric catalogue, percentiles and the per-layer table.

End-to-end metrics are measured with tracing off; per-layer metrics come
from the one traced rep (:class:`~bench.tracing.Tracer`) plus the
program's own deterministic counters (``EngineCounters``,
``GatherStats``, ``TensorCache`` stage counters, the cost-model
timelines).
"""

from __future__ import annotations

import math
import re

from repro.analysis import critical_path
from repro.core.batching import GatherStats
from repro.hardware.timeline import RESOURCES

#: Grammar of every metric and workload name.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: End-to-end metric -> unit.  ``BENCHMARK.json`` gates the ones defined
#: on every workload; the rest are workload-specific and only reported.
END_TO_END_UNITS = {
    "setup_s": "s",
    "host_tok_per_s": "tok/s",
    "peak_rss_mb": "MB",
    "sim_tok_per_s": "tok/s",
    "sim_ttft_p50_s": "s",
    "sim_ttft_p90_s": "s",
    "sim_tpot_p50_s": "s",
    "sim_tpot_p90_s": "s",
    "sim_tok_per_kj": "tok/kJ",
    "sim_goodput_tok_per_s": "tok/s",
    "slo_attainment": "fraction",
    "token_match_rate": "fraction",
    "failed_frac": "fraction",
}

#: End-to-end metrics read from the host clock or the OS; every other
#: end-to-end metric is simulated and must repeat bit for bit.
HOST_METRICS = ("setup_s", "host_tok_per_s", "peak_rss_mb")

#: Op kinds DAOP schedules with non-zero duration; any other kind is
#: summed under ``other``.
OP_KINDS = ("non_moe", "gate", "expert_gpu", "expert_cpu", "act_d2h",
            "act_h2d", "expert_upload", "lm_head")

#: TensorCache stages with a per-stage hit rate.
CACHE_STAGES = ("attn", "gate", "route", "expert", "ffn_norm", "lm_head")

_KINDS = OP_KINDS + ("other",)

#: Per-layer metric -> unit, in report order.
PER_LAYER_UNITS = {
    "model.self_s": "s",
    "model.calls": "count",
    "model.expert_rows": "count",
    "perf.self_s": "s",
    "perf.key_bytes": "bytes",
    "perf.lookups": "count",
    "perf.hit_rate": "fraction",
    **{f"perf.hit_rate.{stage}": "fraction" for stage in CACHE_STAGES},
    "perf.evictions": "count",
    "hardware.self_s": "s",
    "hardware.ops": "count",
    "core.self_s": "s",
    "core.steps": "count",
    "sched.self_s": "s",
    "sched.ticks": "count",
    "sched.mean_active": "count",
    "sched.queue_delay_p50_s": "s",
    "cluster.self_s": "s",
    "cluster.events": "count",
    "cluster.warm_hit_rate": "fraction",
    "cluster.load_balance_index": "fraction",
    "cluster.utilization_min": "fraction",
    "cluster.utilization_max": "fraction",
    "cluster.shed": "count",
    "cluster.expired": "count",
    **{f"sim.busy_s.{r}": "s" for r in RESOURCES},
    **{f"sim.occupancy.{r}": "fraction" for r in RESOURCES},
    **{f"sim.kind_s.{k}.{phase}": "s"
       for k in _KINDS for phase in ("prefill", "decode")},
    **{f"sim.critical_s.{k}": "s" for k in _KINDS},
    "memory.gpu_hit_rate": "fraction",
    "memory.expert_uploads": "count",
    "memory.prefill_swaps": "count",
    "memory.decode_swaps": "count",
    "core.cpu_expert_execs": "count",
    "core.stale_input_execs": "count",
    "core.degraded_swaps": "count",
    **{f"core.gather.{phase}.{field}": unit
       for phase in ("decode", "prefill")
       for field, unit in (("expert_amortization", "ratio"),
                           ("expert_kernels", "count"),
                           ("expert_ops", "count"))},
    "core.gather.prefill.attn_kernels": "count",
    "core.gather.prefill.gate_kernels": "count",
    "host.rep_min_s": "s",
    "host.rep_median_s": "s",
    "host.reps": "count",
    "trace.overhead_frac": "fraction",
}

#: The engine the per-layer simulated metrics describe on every
#: workload (the baselines in ``paper-b1-sweep`` are comparison points).
MEASURED_ENGINE = "daop"


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile that tolerates ``inf`` samples.

    Refused requests enter latency samples as ``inf`` (they miss every
    limit); a percentile that interpolates towards one is ``inf``.
    """
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    if frac == 0.0 or xs[hi] == xs[lo]:
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def tail_supported(n_samples: int, q: float) -> bool:
    """Whether at least ten samples lie beyond the ``q``-th percentile."""
    return n_samples * (100.0 - q) / 100.0 >= 10.0 - 1e-9


def latency_metrics(ttft: list, tpot: list) -> dict:
    """Median TTFT/TPOT, plus p90 where the sample supports it."""
    out = {
        "sim_ttft_p50_s": percentile(ttft, 50),
        "sim_tpot_p50_s": percentile(tpot, 50),
    }
    for name, values in (("sim_ttft_p90_s", ttft), ("sim_tpot_p90_s", tpot)):
        value = percentile(values, 90)
        if tail_supported(len(values), 90) and math.isfinite(value):
            out[name] = value
    return out


def _phase_of(op, prefill_end: float) -> str:
    return "prefill" if op.start < prefill_end else "decode"


def _kind_of(op) -> str:
    return op.kind if op.kind in OP_KINDS else "other"


def per_layer_metrics(tracer, rep) -> dict:
    """The per-layer table of one traced rep.

    Args:
        tracer: the :class:`~bench.tracing.Tracer` that observed the rep.
        rep: the workload's :class:`~bench.workloads.RepOutput`.
    """
    out = {name: 0 if unit in ("count", "bytes") else 0.0
           for name, unit in PER_LAYER_UNITS.items()}
    for layer in ("model", "perf", "hardware", "core", "sched", "cluster"):
        out[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    out["model.calls"] = tracer.layer_calls("model")
    out["model.expert_rows"] = tracer.expert_rows
    out["hardware.ops"] = tracer.layer_calls("hardware", ("add",))
    out["core.steps"] = tracer.layer_calls(
        "core", ("step", "step_batch", "step_prefill_batch")
    )

    cache = rep.cache
    if cache is not None:
        counters = cache.stage_counters
        lookups = sum(c.lookups for c in counters.values())
        served = sum(c.hits + c.memo_hits for c in counters.values())
        out["perf.key_bytes"] = tracer.key_bytes
        out["perf.lookups"] = lookups
        out["perf.hit_rate"] = served / lookups if lookups else 0.0
        for stage in CACHE_STAGES:
            if stage in counters:
                out[f"perf.hit_rate.{stage}"] = counters[stage].hit_rate
        out["perf.evictions"] = cache.evictions

    reports = tracer.batch_reports
    out["sched.ticks"] = tracer.layer_calls("sched", ("tick",))
    productive = tracer.true_ticks("sched")
    if productive:
        out["sched.mean_active"] = (
            sum(r.total_generated for r in reports) / productive
        )
    # A fleet request waits in its replica's queue before its gang's
    # scheduler admits it; the cluster records the whole wait.
    cluster = rep.cluster
    delays = ([r.queue_delay_s for r in cluster.requests]
              if cluster is not None else
              [rec.queue_delay_s for r in reports for rec in r.records])
    out["sched.queue_delay_p50_s"] = percentile(delays, 50)

    if cluster is not None:
        utilization = cluster.replica_utilization()
        out["cluster.events"] = tracer.true_ticks("cluster")
        out["cluster.warm_hit_rate"] = cluster.mean_warm_hit_rate
        out["cluster.load_balance_index"] = cluster.load_balance_index
        out["cluster.utilization_min"] = min(utilization)
        out["cluster.utilization_max"] = max(utilization)
        out["cluster.shed"] = cluster.n_shed
        out["cluster.expired"] = cluster.n_expired

    results = [result for name, result in tracer.results
               if name == MEASURED_ENGINE]
    activated = resident = 0
    for result in results:
        timeline = result.timeline
        prefill_end = result.stats.prefill_time_s
        for op in timeline.ops:
            out[f"sim.busy_s.{op.resource}"] += op.duration
            key = f"sim.kind_s.{_kind_of(op)}.{_phase_of(op, prefill_end)}"
            out[key] += op.duration
        for kind, seconds in critical_path(timeline).kind_breakdown().items():
            key = kind if kind in OP_KINDS else "other"
            out[f"sim.critical_s.{key}"] += seconds
        counters = result.stats.counters
        activated += counters.activated_total
        resident += counters.activated_gpu_resident
        out["memory.expert_uploads"] += counters.expert_uploads
        out["memory.prefill_swaps"] += counters.prefill_swaps
        out["memory.decode_swaps"] += counters.decode_swaps
        out["core.cpu_expert_execs"] += counters.cpu_expert_execs
        out["core.stale_input_execs"] += counters.stale_input_execs
        out["core.degraded_swaps"] += counters.degraded_swaps
    out["memory.gpu_hit_rate"] = resident / activated if activated else 0.0
    if rep.lane_span_s > 0:
        for resource in RESOURCES:
            out[f"sim.occupancy.{resource}"] = (
                out[f"sim.busy_s.{resource}"] / rep.lane_span_s
            )

    gather = rep.gather if rep.gather is not None else GatherStats()
    for phase in ("decode", "prefill"):
        out[f"core.gather.{phase}.expert_amortization"] = getattr(
            gather, f"{phase}_expert_amortization"
        )
        out[f"core.gather.{phase}.expert_kernels"] = getattr(
            gather, f"{phase}_expert_kernels"
        )
        out[f"core.gather.{phase}.expert_ops"] = getattr(
            gather, f"{phase}_expert_ops"
        )
    out["core.gather.prefill.attn_kernels"] = gather.attn_kernels
    out["core.gather.prefill.gate_kernels"] = gather.gate_kernels
    return out
