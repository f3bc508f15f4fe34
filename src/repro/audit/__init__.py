"""Runtime invariant auditor, parity harness and differential audits.

``repro.audit`` is the safety net under every engine in the repo: the
invariant auditor (:mod:`repro.audit.invariants`) checks any finished
generation against the substrate contracts (timeline causality, counter
conservation, energy/makespan consistency, prefill-only migration,
divergence provenance), and the differential harness
(:mod:`repro.audit.differential`) asserts that expert placement never
changes *values* -- every non-predictive engine is token-identical to
the all-on-GPU oracle, and DAOP diverges only through trace events
marked ``predicted=True``.

Every "these two runs are interchangeable" claim is decided by one
comparator (:mod:`repro.audit.parity`): cached vs uncached generations,
``start``/``step``/``finish`` and the scheduler vs ``generate()``
(:func:`run_step_parity_audit`), gathered vs solo runs, and resumed vs
uninterrupted runs (:mod:`repro.audit.resume`: checkpointing any run
mid-decode and restoring it — through JSON bytes, into a fresh engine —
is bitwise invisible).  All three audits report through one
:class:`ParityReport` type.  See ``docs/auditing.md`` and
``docs/lifecycle.md``.
"""

from repro.audit.differential import (
    DEFAULT_SEEDS,
    ORACLE_ENGINE,
    BlockDivergence,
    DifferentialReport,
    EngineComparison,
    block_divergence_accounting,
    compare_token_streams,
    run_differential_audit,
    run_step_parity_audit,
)
from repro.audit.invariants import (
    EXPERT_OP_KINDS,
    TIME_TOLERANCE_S,
    AuditReport,
    Violation,
    audit_generation,
    audit_result,
    check_counter_conservation,
    check_divergence_provenance,
    check_energy_consistency,
    check_pending_uploads_resident,
    check_prefill_only_migration,
    check_timeline_causality,
    check_upload_placement,
    expects_prefill_only_uploads,
)
from repro.audit.parity import (
    Comparison,
    ParityReport,
    result_differences,
    timeline_signature,
    value_differences,
)
from repro.audit.resume import DEFAULT_CUTS, run_resume_parity_audit

__all__ = [
    "DEFAULT_SEEDS",
    "ORACLE_ENGINE",
    "BlockDivergence",
    "DifferentialReport",
    "EngineComparison",
    "block_divergence_accounting",
    "compare_token_streams",
    "run_differential_audit",
    "run_step_parity_audit",
    "Comparison",
    "ParityReport",
    "result_differences",
    "timeline_signature",
    "value_differences",
    "DEFAULT_CUTS",
    "run_resume_parity_audit",
    "EXPERT_OP_KINDS",
    "TIME_TOLERANCE_S",
    "AuditReport",
    "Violation",
    "audit_generation",
    "audit_result",
    "check_counter_conservation",
    "check_divergence_provenance",
    "check_energy_consistency",
    "check_pending_uploads_resident",
    "check_prefill_only_migration",
    "check_timeline_causality",
    "check_upload_placement",
    "expects_prefill_only_uploads",
]
