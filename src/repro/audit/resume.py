"""Resume-parity audit: checkpoint/restore must be invisible.

The lifecycle stack's core invariant (see ``docs/lifecycle.md``) is that
pausing is free: a run checkpointed at step *k*, serialized through JSON
bytes, restored into a *freshly built* engine, and driven to completion
must be interchangeable with a run that never paused
(:func:`~repro.audit.parity.result_differences`: same tokens, trace
events, counters, final placement, timing and per-op timeline).  This
module audits that invariant for every engine, at both lifecycle layers:

- **sequence layer** — ``start``/``step`` to a cut point, freeze via
  :meth:`~repro.core.engine.BaseEngine.checkpoint_sequence`, restore
  into a fresh engine with
  :meth:`~repro.core.engine.BaseEngine.restore_sequence`, finish, and
  compare against an uninterrupted ``generate()``;
- **scheduler layer** — a multi-request continuous-batch session is cut
  mid-flight via
  :meth:`~repro.sched.scheduler.ContinuousBatchScheduler.
  checkpoint_session` and resumed on a fresh engine + scheduler; every
  finished record's result must be interchangeable with the
  uninterrupted session's, and the finished
  :class:`~repro.sched.scheduler.BatchReport` must serialize
  byte-identically to it.

Every resumed result also passes the full invariant audit
(:func:`~repro.audit.invariants.audit_generation`).

Every checkpoint crosses a real ``json.dumps``/``json.loads`` boundary,
so the audit exercises the exact bytes a fresh process would read.
"""

from __future__ import annotations

import json

import numpy as np

from repro.audit.parity import Comparison, ParityReport
from repro.core import ENGINE_NAMES, build_engine
from repro.core.engine import SequenceRequest
from repro.hardware.platform import Platform
from repro.model.zoo import ModelBundle
from repro.sched.scheduler import ContinuousBatchScheduler
from repro.workloads.datasets import C4
from repro.workloads.generator import SequenceGenerator

#: Decode-step counts at which the audit cuts and resumes each run.
DEFAULT_CUTS = (1, 4)


def _json_round_trip(payload: dict) -> dict:
    """Force a checkpoint through the bytes a fresh process would read."""
    return json.loads(json.dumps(payload, sort_keys=True))


def run_resume_parity_audit(
    bundle: ModelBundle,
    platform: Platform,
    engine_names=None,
    seeds=(0,),
    prompt_len: int = 16,
    max_new_tokens: int = 8,
    expert_cache_ratio: float = 0.5,
    calibration_probs: np.ndarray | None = None,
    dataset=C4,
    cuts=DEFAULT_CUTS,
    max_batch: int = 3,
) -> ParityReport:
    """Audit checkpoint-at-*k* + resume parity for every engine.

    For each engine, seed, and cut point *k*, two paths are compared
    against uninterrupted references:

    1. *sequence*: ``start``/``step`` ``k`` times, checkpoint, restore
       into a freshly built engine, finish — compared against an
       uninterrupted ``generate()``.
    2. *scheduler*: a ``max_batch``-wide session over three staggered
       requests is ticked ``k`` times, checkpointed, restored onto a
       fresh engine + scheduler, and drained — each record's result is
       compared against the uninterrupted session's, and the report
       must serialize byte-identically to it.

    Every resumed result is also invariant-audited.

    Every checkpoint passes through canonical JSON bytes, so restoring
    in a fresh *process* reads exactly what this audit validates.
    """
    if engine_names is None:
        engine_names = ENGINE_NAMES
    report = ParityReport(title="resume-parity audit")

    def fresh(name):
        return build_engine(name, bundle, platform, expert_cache_ratio,
                            calibration_probs)

    for seed in seeds:
        generator = SequenceGenerator(dataset, bundle.vocab, seed=int(seed))
        prompts = [
            generator.sample_sequence(
                prompt_len, 0, sample_idx=i
            ).prompt_tokens
            for i in range(3)
        ]
        arrivals = [0.0, 0.0, float(max_new_tokens)]
        requests = [
            SequenceRequest(prompt_tokens=p, max_new_tokens=max_new_tokens,
                            seq_id=i)
            for i, p in enumerate(prompts)
        ]
        for name in engine_names:
            reference = fresh(name).generate(prompts[0], max_new_tokens)
            ref_sched = ContinuousBatchScheduler(
                fresh(name), max_batch=max_batch
            ).run(requests, arrival_times=arrivals)
            ref_json = ref_sched.to_json()
            ref_records = sorted(ref_sched.records, key=lambda r: r.seq_id)

            for cut in cuts:
                comparison = Comparison(label=f"{name}/seed{seed}/cut{cut}")

                engine = fresh(name)
                state = engine.start(SequenceRequest(
                    prompt_tokens=prompts[0],
                    max_new_tokens=max_new_tokens,
                ))
                steps = 0
                while not state.done and steps < cut:
                    engine.step(state)
                    steps += 1
                payload = _json_round_trip(engine.checkpoint_sequence(state))
                resumed_engine = fresh(name)
                resumed = resumed_engine.restore_sequence(payload)
                while not resumed.done:
                    resumed_engine.step(resumed)
                comparison.check("sequence", reference,
                                 resumed_engine.finish(resumed),
                                 engine=resumed_engine)

                scheduler = ContinuousBatchScheduler(
                    fresh(name), max_batch=max_batch
                )
                session = scheduler.begin(requests, arrival_times=arrivals)
                for _ in range(cut):
                    if not scheduler.tick(session):
                        break
                payload = _json_round_trip(
                    scheduler.checkpoint_session(session)
                )
                resumed_sched = ContinuousBatchScheduler(
                    fresh(name), max_batch=max_batch
                )
                resumed_session = resumed_sched.restore_session(payload)
                while resumed_sched.tick(resumed_session):
                    pass
                got = resumed_sched.finish(resumed_session)
                # The JSON equality covers which records finished; the
                # pairwise check covers what each one produced.
                for ref, record in zip(ref_records, sorted(
                        got.records, key=lambda r: r.seq_id)):
                    comparison.check(f"scheduler seq{record.seq_id}",
                                     ref.result, record.result,
                                     engine=resumed_sched.engine)
                if got.to_json() != ref_json:
                    comparison.problems.append(
                        "scheduler: resumed session report differs from "
                        "uninterrupted run"
                    )
                report.comparisons.append(comparison)
    return report
