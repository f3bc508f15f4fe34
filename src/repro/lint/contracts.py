"""Opt-in runtime contracts for the DAOP engine substrate.

The static rules in :mod:`repro.lint.rules` catch what is decidable from
the AST; these validators check the dynamic invariants the paper states
in prose:

- **Timeline lane monotonicity** -- each resource (``gpu``/``cpu``/
  ``h2d``/``d2h``) executes its ops in submission order without overlap,
  and every op's ``end`` equals ``start + duration`` (the deterministic
  list-scheduling semantics all engines share).
- **Slot-budget conservation** -- an Algorithm-1 style swap frees the
  cold expert before uploading the hot one, so the number of
  GPU-resident experts never exceeds the calibrated slot budget.
- **Prefill-only migration** (SS IV-B) -- when
  ``decode_realloc_interval`` is ``None`` (the paper's configuration) no
  expert upload may happen after prefill completes.

Contracts are opt-in: wrap an engine with :class:`EngineContractGuard`
(tests use the ``engine_contracts`` fixture from ``conftest.py``) and
every violation raises :class:`ContractViolation` at the offending call,
with the engine restored to its unwrapped state via ``detach()``.
"""

from __future__ import annotations

from repro.hardware.timeline import RESOURCES, Timeline


class ContractViolation(AssertionError):
    """A runtime invariant of the engine substrate was broken."""


def validate_timeline(timeline: Timeline, tolerance: float = 1e-9) -> None:
    """Check per-lane event monotonicity of an executed timeline.

    Raises:
        ContractViolation: if a lane's ops overlap, run out of
            submission order, or an op's span disagrees with its
            duration.
    """
    for resource in RESOURCES:
        previous_end = 0.0
        for op in timeline.ops_on(resource):
            if op.duration < 0:
                raise ContractViolation(
                    f"op {op.index} ({op.label!r}) on {resource} has "
                    f"negative duration {op.duration}"
                )
            if op.start + tolerance < previous_end:
                raise ContractViolation(
                    f"op {op.index} ({op.label!r}) on {resource} starts "
                    f"at {op.start} before the lane is free at "
                    f"{previous_end}: lane ordering is not monotonic"
                )
            if abs(op.end - (op.start + op.duration)) > tolerance:
                raise ContractViolation(
                    f"op {op.index} ({op.label!r}) on {resource} spans "
                    f"[{op.start}, {op.end}] which disagrees with its "
                    f"duration {op.duration}"
                )
            previous_end = op.end


def validate_slot_budget(placement, max_slots: int) -> None:
    """Check that GPU-resident experts fit the calibrated slot budget.

    Raises:
        ContractViolation: if ``placement`` holds more GPU-resident
            experts than ``max_slots``.
    """
    resident = placement.gpu_count()
    if resident > max_slots:
        raise ContractViolation(
            f"slot budget violated: {resident} experts GPU-resident but "
            f"the calibrated budget is {max_slots}"
        )


class EngineContractGuard:
    """Wraps a live engine with runtime contract checks.

    Args:
        engine: any :class:`repro.core.engine.BaseEngine` instance.
        slot_budget: check GPU residency against the engine's initial
            placement budget after every expert upload.  Disable (or set
            ``slot_slack``) for scratch-streaming engines that upload
            before dropping.
        prefill_only: forbid expert uploads during decode.  ``None``
            (default) auto-enables exactly when the engine carries
            ``decode_realloc_interval=None`` -- the paper's DAOP
            configuration; caching baselines legitimately upload during
            decode and are not auto-guarded.
        check_timeline: validate lane monotonicity of the generated
            timeline after every ``generate()`` call.
        slot_slack: extra experts tolerated above the budget (for
            engines with transient upload-then-drop streaming).
    """

    _MISSING = object()

    def __init__(self, engine, slot_budget: bool = True,
                 prefill_only=None, check_timeline: bool = True,
                 slot_slack: int = 0) -> None:
        self.engine = engine
        if prefill_only is None:
            interval = getattr(engine, "decode_realloc_interval",
                               self._MISSING)
            prefill_only = interval is None
        self.prefill_only = prefill_only
        self.slot_budget = slot_budget
        self.check_timeline = check_timeline
        self.slot_slack = slot_slack
        self.phase = "idle"
        self._originals = {}

    # ---- lifecycle -----------------------------------------------------------

    def attach(self) -> "EngineContractGuard":
        """Install the contract wrappers on the engine instance."""
        if self._originals:
            return self
        self._wrap("generate", self._guarded_generate)
        self._wrap("_admit_expert", self._guarded_admit)
        return self

    def detach(self) -> None:
        """Restore the engine's original unwrapped methods."""
        for name in list(self._originals):
            original = self._originals.pop(name)
            if original is self._MISSING:
                delattr(self.engine, name)
            else:
                setattr(self.engine, name, original)

    def __enter__(self) -> "EngineContractGuard":
        """Context-manager entry: attach the guard."""
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: detach the guard."""
        self.detach()

    def _wrap(self, name: str, wrapper) -> None:
        self._originals[name] = self.engine.__dict__.get(name,
                                                         self._MISSING)
        bound = getattr(self.engine, name)
        setattr(self.engine, name,
                lambda *args, **kwargs: wrapper(bound, *args, **kwargs))

    # ---- guarded methods -----------------------------------------------------

    def _guarded_generate(self, original, *args, **kwargs):
        self.phase = "prefill"
        try:
            result = original(*args, **kwargs)
        finally:
            self.phase = "idle"
        if self.check_timeline:
            validate_timeline(result.timeline)
        if self.slot_budget:
            self._check_slot_budget(result.placement)
        return result

    def _guarded_admit(self, original, ctx, *args, **kwargs):
        # Every upload admits through _admit_expert: inline uploads and
        # the ones the cohort driver lands for Algorithm 1 swaps.  The
        # uploading sequence's state carries its own phase and
        # placement, which stay correct when a scheduler batches several
        # sequences (one may be in decode while another is still
        # prefilling, and each holds its own residency).
        if self.prefill_only and ctx.phase == "decode":
            raise ContractViolation(
                f"engine '{self.engine.name}' uploaded an expert during "
                "decode, but migration is restricted to prefill "
                "(SS IV-B, decode_realloc_interval is None)"
            )
        original(ctx, *args, **kwargs)
        if self.slot_budget:
            self._check_slot_budget(ctx.residency.placement)

    def _check_slot_budget(self, placement) -> None:
        validate_slot_budget(
            placement,
            self.engine.initial_placement.gpu_count() + self.slot_slack,
        )
