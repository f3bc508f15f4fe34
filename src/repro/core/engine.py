"""Inference-engine base class.

An engine runs the functional model for *values* while charging simulated
time for every op against the platform timeline at paper-scale dimensions.
Subclasses implement the prefill and decode policies that differentiate
DAOP from the baselines: where experts execute, when they migrate, and
whether next-layer predictions pre-calculate anything.

The shared primitives here guarantee that all engines are compared on an
identical substrate: same functional model, same cost model, same timeline
semantics, same trace instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.batching import (
    CPU_LOC,
    GPU_LOC,
    AttentionRequest,
    BlockWork,
    ExpertCall,
    group_block_work,
)
from repro.events import (
    ENGINE_STEP,
    SEQUENCE_FINISH,
    SEQUENCE_START,
    EventBus,
)
from repro.hardware.cost_model import CostModel
from repro.hardware.device import DeviceKind
from repro.hardware.energy import EnergyBreakdown, EnergyModel
from repro.hardware.platform import Platform
from repro.hardware.timeline import CPU, D2H, GPU, H2D, Op, Timeline
from repro.memory.cache import CacheConfig, build_calibrated_placement
from repro.memory.placement import ExpertPlacement
from repro.model.attention import KVCache
from repro.model.gating import group_by_expert
from repro.model.sampling import greedy
from repro.model.serialization import (
    canonical_digest,
    decode_array,
    decode_optional_array,
    encode_array,
    encode_optional_array,
)
from repro.model.zoo import ModelBundle
from repro.trace.recorder import DECODE, PREFILL, ActivationTrace

#: Version of the sequence-checkpoint payload layout.  Bumped whenever
#: the state-dict schema changes shape; restore rejects other versions
#: instead of misreading them.
SEQUENCE_CHECKPOINT_VERSION = 1


@dataclass
class EngineCounters:
    """Operational counters accumulated over one generation."""

    gpu_expert_execs: int = 0
    cpu_expert_execs: int = 0
    expert_uploads: int = 0
    expert_downloads: int = 0
    stale_input_execs: int = 0
    degraded_swaps: int = 0
    activated_gpu_resident: int = 0
    activated_total: int = 0
    prefill_swaps: int = 0
    decode_swaps: int = 0

    @property
    def gpu_hit_rate(self) -> float:
        """Fraction of activated experts GPU-resident at execution time."""
        if self.activated_total == 0:
            return 0.0
        return self.activated_gpu_resident / self.activated_total

    def to_state_dict(self) -> dict:
        """Serialize the counters for a checkpoint."""
        return {
            "gpu_expert_execs": self.gpu_expert_execs,
            "cpu_expert_execs": self.cpu_expert_execs,
            "expert_uploads": self.expert_uploads,
            "expert_downloads": self.expert_downloads,
            "stale_input_execs": self.stale_input_execs,
            "degraded_swaps": self.degraded_swaps,
            "activated_gpu_resident": self.activated_gpu_resident,
            "activated_total": self.activated_total,
            "prefill_swaps": self.prefill_swaps,
            "decode_swaps": self.decode_swaps,
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "EngineCounters":
        """Rebuild counters captured by :meth:`to_state_dict`."""
        return cls(**{key: int(value) for key, value in payload.items()})


@dataclass
class GenerationStats:
    """Simulated performance summary of one generation."""

    n_prompt_tokens: int
    n_generated: int
    prefill_time_s: float
    total_time_s: float
    energy: EnergyBreakdown
    counters: EngineCounters

    @property
    def decode_time_s(self) -> float:
        """Simulated time spent in the decode phase."""
        return self.total_time_s - self.prefill_time_s

    @property
    def tokens_per_second(self) -> float:
        """End-to-end generated tokens per simulated second."""
        if self.total_time_s <= 0:
            return 0.0
        return self.n_generated / self.total_time_s

    @property
    def decode_tokens_per_second(self) -> float:
        """Decode-phase generated tokens per simulated second.

        The first generated token comes from the *prefill* logits, so a
        generation of ``n_generated`` tokens runs only ``n_generated - 1``
        decode steps; dividing by that count matches
        :attr:`repro.serving.simulator.ServedRequest.tpot_s`.
        """
        if self.decode_time_s <= 0 or self.n_generated <= 1:
            return 0.0
        return (self.n_generated - 1) / self.decode_time_s

    @property
    def tokens_per_kilojoule(self) -> float:
        """Energy efficiency (paper Table IV metric)."""
        kj = self.energy.total_kj
        if kj <= 0:
            return 0.0
        return self.n_generated / kj

    @property
    def average_power_w(self) -> float:
        """Mean platform power over the generation."""
        if self.total_time_s <= 0:
            return 0.0
        return self.energy.total_j / self.total_time_s

    def to_state_dict(self) -> dict:
        """Serialize the stats for a checkpoint."""
        return {
            "n_prompt_tokens": self.n_prompt_tokens,
            "n_generated": self.n_generated,
            "prefill_time_s": self.prefill_time_s,
            "total_time_s": self.total_time_s,
            "energy": self.energy.to_state_dict(),
            "counters": self.counters.to_state_dict(),
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "GenerationStats":
        """Rebuild stats captured by :meth:`to_state_dict`."""
        return cls(
            n_prompt_tokens=int(payload["n_prompt_tokens"]),
            n_generated=int(payload["n_generated"]),
            prefill_time_s=payload["prefill_time_s"],
            total_time_s=payload["total_time_s"],
            energy=EnergyBreakdown.from_state_dict(payload["energy"]),
            counters=EngineCounters.from_state_dict(payload["counters"]),
        )


@dataclass
class GenerationResult:
    """Everything produced by one engine generation."""

    tokens: np.ndarray
    trace: ActivationTrace
    timeline: Timeline
    stats: GenerationStats
    placement: ExpertPlacement

    def to_state_dict(self) -> dict:
        """Serialize the result for a checkpoint.

        The timeline is rebased sequence-local time by the time a result
        exists, so its resource clock carries no information and is not
        serialized.
        """
        return {
            "tokens": encode_array(self.tokens),
            "trace": self.trace.to_state_dict(),
            "timeline": self.timeline.to_state_dict(include_clock=False),
            "stats": self.stats.to_state_dict(),
            "placement": self.placement.to_state_dict(),
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "GenerationResult":
        """Rebuild a result captured by :meth:`to_state_dict`."""
        return cls(
            tokens=decode_array(payload["tokens"]),
            trace=ActivationTrace.from_state_dict(payload["trace"]),
            timeline=Timeline.from_state_dict(payload["timeline"]),
            stats=GenerationStats.from_state_dict(payload["stats"]),
            placement=ExpertPlacement.from_state_dict(payload["placement"]),
        )


#: Sequence lifecycle phases (:attr:`SequenceState.phase`).
SEQ_PREFILL = "prefill"
SEQ_DECODE = "decode"
SEQ_DONE = "done"


@dataclass(frozen=True)
class SequenceRequest:
    """One generation request, as handed to :meth:`BaseEngine.start`.

    Attributes:
        prompt_tokens: input token ids (non-empty 1-D array).
        max_new_tokens: decode steps to run (>= 1).
        forced_tokens: optional teacher-forced decode inputs; step ``t``
            consumes ``forced_tokens[t]`` instead of the engine's own
            previous sample (the engine's sampled outputs are still
            returned).
        sampler: callable ``logits -> token id``; ``None`` means greedy.
        seq_id: caller-chosen identifier carried through to the state
            and scheduler reports.
    """

    prompt_tokens: np.ndarray
    max_new_tokens: int
    forced_tokens: np.ndarray | None = None
    sampler: object = None
    seq_id: int = 0

    def to_state_dict(self) -> dict:
        """Serialize the request for a checkpoint.

        Raises:
            ValueError: for a custom sampler.  An arbitrary callable
                cannot be captured in a checkpoint; only the default
                greedy sampler (``sampler=None``) is serializable.
        """
        if self.sampler is not None:
            raise ValueError(
                "a request with a custom sampler cannot be checkpointed; "
                "only greedy sampling (sampler=None) is serializable"
            )
        return {
            "prompt_tokens": encode_array(
                np.asarray(self.prompt_tokens, dtype=np.int64)
            ),
            "max_new_tokens": self.max_new_tokens,
            "forced_tokens": encode_optional_array(self.forced_tokens),
            "seq_id": self.seq_id,
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "SequenceRequest":
        """Rebuild a request captured by :meth:`to_state_dict`."""
        return cls(
            prompt_tokens=decode_array(payload["prompt_tokens"]),
            max_new_tokens=int(payload["max_new_tokens"]),
            forced_tokens=decode_optional_array(payload["forced_tokens"]),
            sampler=None,
            seq_id=int(payload["seq_id"]),
        )


@dataclass(frozen=True)
class BlockPlan:
    """Residency arrangement returned by the per-block policy hooks.

    Attributes:
        extra_deps: per-expert additional dependency ops (e.g. the
            upload that brings the expert's weights onto the device).
        force_gpu: experts that must execute on the GPU regardless of
            the placement map (streamed through scratch buffers that the
            placement bookkeeping has already released).
    """

    extra_deps: dict[int, list[Op]] = field(default_factory=dict)
    force_gpu: set[int] | None = None


@dataclass
class SequenceState:
    """Everything one in-flight sequence owns, threaded through the hooks.

    A state is created by :meth:`BaseEngine.start`, advanced one prefill
    pass or one decode token at a time by :meth:`BaseEngine.step`, and
    summarized into a :class:`GenerationResult` by
    :meth:`BaseEngine.finish`.  Because the placement copy, KV caches,
    trace, counters, and engine-policy state all live here (not on the
    engine), any number of states may be interleaved on one engine.

    ``policy`` belongs to the engine subclass (set in
    ``_begin_sequence``); ``extra`` is scratch private to
    ``repro.core.engine`` itself -- policy code must communicate through
    hook arguments and :class:`BlockPlan` returns (lint rule ENG004).
    """

    request: SequenceRequest
    sampler: object
    placement: ExpertPlacement
    caches: list[KVCache]
    timeline: Timeline
    trace: ActivationTrace
    counters: EngineCounters
    position: int = 0
    phase: str = SEQ_PREFILL
    generated: list[int] = field(default_factory=list)
    last_op: Op | None = None
    prefill_time_s: float = 0.0
    policy: object = None
    extra: dict = field(default_factory=dict)

    @property
    def seq_id(self) -> int:
        """Identifier carried over from the request."""
        return self.request.seq_id

    @property
    def done(self) -> bool:
        """Whether the sequence has produced all requested tokens."""
        return self.phase == SEQ_DONE

    @property
    def n_generated(self) -> int:
        """Tokens generated so far."""
        return len(self.generated)

    def to_state_dict(self, include_clock: bool = True) -> dict:
        """Serialize everything the sequence owns except ``policy``.

        Engine policy state is serialized by the owning engine
        (:meth:`BaseEngine.checkpoint_sequence`) because only the engine
        knows its shape.  States are checkpointable exactly *between*
        step calls: block-work generators live only inside one
        ``_step_cohort`` call, so position/phase/generated plus the
        last op fully determine the resume point.

        Args:
            include_clock: serialize the timeline's resource clock.
                Pass ``False`` in the shared-clock scheduler regime,
                where the scheduler checkpoints the one clock itself.
        """
        return {
            "request": self.request.to_state_dict(),
            "placement": self.placement.to_state_dict(),
            "caches": [cache.to_state_dict() for cache in self.caches],
            "timeline": self.timeline.to_state_dict(
                include_clock=include_clock
            ),
            "trace": self.trace.to_state_dict(),
            "counters": self.counters.to_state_dict(),
            "position": self.position,
            "phase": self.phase,
            "generated": list(self.generated),
            "last_op": None if self.last_op is None else self.last_op.index,
            "prefill_time_s": self.prefill_time_s,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_state_dict(cls, payload: dict,
                        clock=None) -> "SequenceState":
        """Rebuild a state captured by :meth:`to_state_dict`.

        Args:
            payload: the captured state dict.
            clock: resource clock for the restored timeline; ``None``
                restores the serialized clock (or a fresh one if the
                clock was not serialized).

        The restored ``policy`` is ``None``; the owning engine's
        ``_restore_policy`` reinstalls it.
        """
        timeline = Timeline.from_state_dict(payload["timeline"], clock=clock)
        last_op = payload["last_op"]
        state = cls(
            request=SequenceRequest.from_state_dict(payload["request"]),
            sampler=greedy,
            placement=ExpertPlacement.from_state_dict(payload["placement"]),
            caches=[
                KVCache.from_state_dict(cache)
                for cache in payload["caches"]
            ],
            timeline=timeline,
            trace=ActivationTrace.from_state_dict(payload["trace"]),
            counters=EngineCounters.from_state_dict(payload["counters"]),
            position=int(payload["position"]),
            phase=payload["phase"],
            generated=[int(token) for token in payload["generated"]],
            last_op=(
                None if last_op is None else timeline.ops[int(last_op)]
            ),
            prefill_time_s=payload["prefill_time_s"],
            extra=dict(payload["extra"]),
        )
        return state


@dataclass(frozen=True)
class StepResult:
    """Outcome of one :meth:`BaseEngine.step` call.

    Attributes:
        phase: the phase the step executed (``SEQ_PREFILL`` ran the
            whole prompt, ``SEQ_DECODE`` ran one token).
        token: the token id appended to the sequence by this step.
        done: whether the sequence is now finished.
        n_generated: tokens generated so far, including this one.
    """

    phase: str
    token: int
    done: bool
    n_generated: int


class BaseEngine:
    """Common machinery for all MoE inference engines."""

    name = "base"

    #: Per-op host-side dispatch overhead (seconds) of the Python
    #: orchestration stack.  The paper's engine is built on Hugging Face
    #: Transformers, whose per-module dispatch dominates small decode ops
    #: at batch size one; the raw cost model stays kernel-level so Table I
    #: still reproduces, while engines charge this on every scheduled op.
    FRAMEWORK_OVERHEAD_S = 2.5e-4

    def __init__(
        self,
        bundle: ModelBundle,
        platform: Platform,
        cache_config: CacheConfig | None = None,
        calibration_probs: np.ndarray | None = None,
        initial_placement: ExpertPlacement | None = None,
        framework_overhead_s: float | None = None,
    ) -> None:
        self.bundle = bundle
        self.model = bundle.model
        self.platform = platform
        self.cost_model = CostModel(bundle.arch, platform)
        self.energy_model = EnergyModel(platform)
        self.framework_overhead_s = (
            self.FRAMEWORK_OVERHEAD_S
            if framework_overhead_s is None
            else framework_overhead_s
        )
        n_blocks = self.model.n_blocks
        n_experts = self.model.n_experts
        if calibration_probs is not None:
            calibration_probs = np.asarray(calibration_probs, dtype=float)
            if calibration_probs.shape != (n_blocks, n_experts):
                raise ValueError(
                    "calibration_probs shape "
                    f"{calibration_probs.shape} does not match the model "
                    f"topology ({n_blocks}, {n_experts})"
                )
        if initial_placement is not None:
            placement = initial_placement
        elif cache_config is not None:
            if calibration_probs is None:
                # Without calibration, fall back to a flat prior so the
                # slot budget is still honored deterministically.
                calibration_probs = np.tile(
                    np.linspace(1.0, 0.9, n_experts), (n_blocks, 1)
                )
            placement = build_calibrated_placement(
                calibration_probs, cache_config
            )
        else:
            placement = ExpertPlacement.all_on_gpu(n_blocks, n_experts)
        self.initial_placement = placement
        self.calibration_probs = calibration_probs
        #: Instance-scoped event bus; subscribers observe the sequence
        #: lifecycle (start / step / finish) without perturbing it.
        self.events = EventBus()
        #: Most recently started sequence state (deprecated access path
        #: for post-hoc inspection; see the ``placement`` property).
        self._active_state: SequenceState | None = None

    # ---- public API ------------------------------------------------------------

    @property
    def placement(self) -> ExpertPlacement:
        """Deprecated: the most recently started sequence's placement.

        Residency now lives on each :class:`SequenceState` so multiple
        sequences can interleave on one engine without corrupting each
        other; this read-only view exists for the audit harness and
        older tests that inspect placement right after a ``generate()``
        call.  Engine policy code must use ``ctx.placement``.
        """
        if self._active_state is None:
            return self.initial_placement
        return self._active_state.placement

    def start(self, request: SequenceRequest,
              timeline: Timeline | None = None) -> SequenceState:
        """Validate a request and build its resumable sequence state.

        Args:
            request: the generation request.
            timeline: optional externally built timeline -- a scheduler
                passes one whose :class:`~repro.hardware.timeline.
                ResourceClock` is shared across sequences so they
                contend for the same lanes.  ``None`` builds a private
                timeline (the solo, batch-size-one regime).

        Returns:
            A fresh :class:`SequenceState` in the ``prefill`` phase; no
            simulated work has been charged yet.
        """
        prompt_tokens = np.asarray(request.prompt_tokens, dtype=np.int64)
        if prompt_tokens.ndim != 1 or prompt_tokens.size == 0:
            raise ValueError("prompt_tokens must be a non-empty 1-D array")
        if request.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be positive")
        forced_tokens = request.forced_tokens
        if forced_tokens is not None:
            forced_tokens = np.asarray(forced_tokens, dtype=np.int64)
            if forced_tokens.size < request.max_new_tokens - 1:
                raise ValueError(
                    "forced_tokens must cover max_new_tokens - 1 steps"
                )
        request = SequenceRequest(
            prompt_tokens=prompt_tokens,
            max_new_tokens=int(request.max_new_tokens),
            forced_tokens=forced_tokens,
            sampler=request.sampler,
            seq_id=request.seq_id,
        )
        state = SequenceState(
            request=request,
            sampler=request.sampler or greedy,
            placement=self.initial_placement.copy(),
            caches=self.model.new_caches(),
            timeline=timeline if timeline is not None else Timeline(),
            trace=ActivationTrace(self.model.n_blocks, self.model.n_experts),
            counters=EngineCounters(),
        )
        self._active_state = state
        self._begin_sequence(state)
        if self.events.active:
            self.events.emit(
                SEQUENCE_START, state.timeline.clock.free[GPU],
                engine=self.name, seq_id=state.seq_id,
                n_prompt_tokens=int(prompt_tokens.size),
                max_new_tokens=request.max_new_tokens,
            )
        return state

    def step(self, state: SequenceState) -> StepResult:
        """Advance one sequence by one unit of work: a cohort of one.

        In the ``prefill`` phase this runs the whole prompt through the
        model (plus the LM head) and samples the first token; in the
        ``decode`` phase it runs one decode token.  Either way exactly
        one token is appended to ``state.generated``.

        Raises:
            RuntimeError: if the sequence is already done.
        """
        return self._step_cohort([state])[0]

    def step_batch(self, states: list, gather_stats=None) -> list:
        """Advance several decode-phase sequences one token each, gathered.

        The decode cohort entry of :meth:`_step_cohort`: tokens routed
        to the same expert *across sequences* execute as one gathered
        kernel, and the final LM head runs once over all last-token
        rows.  Every sequence's token stream is identical to its solo
        run; only the simulated schedule changes.

        Args:
            states: decode-phase sequence states, in admission order.
                When more than one, all must share one
                :class:`~repro.hardware.timeline.ResourceClock`.
            gather_stats: optional
                :class:`~repro.core.batching.GatherStats` accumulating
                physical-kernel counts.

        Returns:
            One :class:`StepResult` per state, aligned with ``states``.

        Raises:
            ValueError: for an empty batch or mixed resource clocks.
            RuntimeError: for a state not in the decode phase.
        """
        return self._step_cohort(states, gather_stats, SEQ_DECODE)

    def step_prefill_batch(self, states: list, gather_stats=None) -> list:
        """Advance several prefill-phase sequences one full pass, gathered.

        The prefill cohort entry of :meth:`_step_cohort`: a
        prompt-length cohort's passes run block-locked, same-expert
        calls merge into one kernel, and attention and gate ops are
        priced as shares of one batched launch.  Arguments, return value
        and errors mirror :meth:`step_batch`, for prefill-phase states.
        """
        return self._step_cohort(states, gather_stats, SEQ_PREFILL)

    def _step_cohort(self, states: list, gather_stats=None,
                     phase: str | None = None) -> list:
        """Advance a same-phase cohort by one unit of work each.

        The one execution path of the engine.  Every state's block-work
        generator (:meth:`_prefill_blocks` or :meth:`_decode_blocks`)
        runs block-locked.  Per block, the members'
        :class:`~repro.core.batching.AttentionRequest` items are
        evaluated in one stacked call (:meth:`_attention_round`), then
        their :class:`~repro.core.batching.BlockWork` items execute
        through :meth:`_execute_block_work_gathered`, where
        same-``(block, expert, device)`` calls of different sequences
        merge into one simulated kernel; the final LM head runs once
        over all last-token rows.  Functional values come from the
        cache-aware stacked stage API, whose per-member bytes equal a
        solo evaluation, and every member records its own timed ops in
        its own generator order, so token bytes, cache keys, traces and
        counters never depend on the cohort.

        In a prefill cohort of two or more, attention and gate ops
        cannot merge functionally (each works on its own hidden
        states), but they are priced as shares of one batched launch:
        each op's solo duration is scaled by ``eff(total cohort rows) /
        eff(own rows)`` from the cost model's
        ``attention_batch_efficiency`` / ``gate_batch_efficiency``
        curves, so the cohort's summed time equals one kernel over all
        rows.

        A cohort of one is the paper's batch-size-one step: one
        participant per group, nothing to price or hold.

        Args:
            states: sequence states in admission order (the stable
                per-sequence gather order).
            gather_stats: optional
                :class:`~repro.core.batching.GatherStats` accumulator.
            phase: the phase every state must be in; ``None`` takes the
                first state's.

        Returns:
            One :class:`StepResult` per state, aligned with ``states``.

        Raises:
            ValueError: for an empty cohort, or several states on
                different resource clocks (private clocks cannot express
                a shared kernel).
            RuntimeError: for a done state or a state in another phase.
        """
        if not states:
            raise ValueError("a cohort needs at least one state")
        phase = phase or states[0].phase
        for state in states:
            if state.phase == SEQ_DONE:
                raise RuntimeError(
                    f"sequence {state.seq_id} is done; call finish()"
                )
            if state.phase != phase:
                raise RuntimeError(
                    f"sequence {state.seq_id} is in phase "
                    f"{state.phase!r}; this cohort serves {phase}-phase "
                    "sequences"
                )
        if len(states) > 1 and len(
                {id(state.timeline.clock) for state in states}) != 1:
            raise ValueError(
                "batched stepping requires all states to share one "
                "ResourceClock (scheduler-built timelines); private "
                "clocks cannot express a gathered kernel"
            )
        prefill = phase == SEQ_PREFILL
        if prefill:
            if len(states) > 1:
                rows_total = sum(
                    int(state.request.prompt_tokens.size) for state in states
                )
                for state in states:
                    state.extra["gather_pricing"] = {"rows_total": rows_total}
            gens = [self._prefill_blocks(state, state.request.prompt_tokens)
                    for state in states]
        else:
            gens = []
            for state in states:
                forced = state.request.forced_tokens
                token = (int(forced[len(state.generated) - 1])
                         if forced is not None else state.generated[-1])
                gens.append(self._decode_blocks(state, token,
                                                [state.last_op]))
        try:
            results: list = [None] * len(states)
            for _round in range(self.model.n_blocks):
                requests = self._advance(gens, results, AttentionRequest,
                                         phase)
                replies = self._attention_round(states, requests)
                works = self._advance(gens, replies, BlockWork, phase)
                if prefill and gather_stats is not None:
                    gather_stats.attn_kernels += 1
                    gather_stats.attn_ops += len(states)
                    gather_stats.gate_kernels += 1
                    gather_stats.gate_ops += len(states)
                results = self._execute_block_work_gathered(
                    list(zip(states, works)), gather_stats, phase
                )
            finals = []
            for gen, result in zip(gens, results):
                try:
                    gen.send(result)
                except StopIteration as stop:
                    finals.append(stop.value)
                else:
                    raise RuntimeError(
                        f"{phase} pass of {self.name!r} yielded more than "
                        "n_blocks request/work pairs"
                    )
        finally:
            if prefill and len(states) > 1:
                for state in states:
                    del state.extra["gather_pricing"]
        logits_rows, lm_ops = self._lm_head_batch(
            states, [h for h, _ in finals], [op for _, op in finals],
            gather_stats, phase,
        )
        step_results = []
        for state, logits, lm_op in zip(states, logits_rows, lm_ops):
            state.last_op = lm_op
            if prefill:
                state.prefill_time_s = lm_op.end
            token = int(state.sampler(logits))
            state.generated.append(token)
            if len(state.generated) >= state.request.max_new_tokens:
                state.phase = SEQ_DONE
            else:
                state.phase = SEQ_DECODE
            if self.events.active:
                self.events.emit(
                    ENGINE_STEP, lm_op.end, engine=self.name,
                    seq_id=state.seq_id, phase=phase, token=token,
                    n_generated=len(state.generated), done=state.done,
                    batched=len(states),
                )
            step_results.append(StepResult(
                phase=phase,
                token=token,
                done=state.done,
                n_generated=len(state.generated),
            ))
        return step_results

    def finish(self, state: SequenceState) -> GenerationResult:
        """Summarize a finished sequence into a :class:`GenerationResult`.

        The state's timeline is rebased to its own service start, so the
        result is expressed in sequence-local time exactly as a solo
        ``generate()`` would report it (stats durations, energy
        integral, audit invariants); a scheduler records absolute
        arrival/start/finish times itself before calling this.

        Raises:
            RuntimeError: if the sequence has not produced all its
                tokens yet.
        """
        if state.phase != SEQ_DONE:
            raise RuntimeError(
                f"sequence {state.seq_id} is still in phase "
                f"{state.phase!r}; step() it to completion first"
            )
        t0 = state.timeline.ops[0].start if state.timeline.ops else 0.0
        state.timeline.rebase(t0)
        state.prefill_time_s -= t0
        stats = GenerationStats(
            n_prompt_tokens=int(state.request.prompt_tokens.size),
            n_generated=len(state.generated),
            prefill_time_s=state.prefill_time_s,
            total_time_s=state.timeline.makespan,
            energy=self.energy_model.energy(state.timeline),
            counters=state.counters,
        )
        if self.events.active:
            self.events.emit(
                SEQUENCE_FINISH, stats.total_time_s, engine=self.name,
                seq_id=state.seq_id, n_generated=stats.n_generated,
                total_time_s=stats.total_time_s,
            )
        return GenerationResult(
            tokens=np.asarray(state.generated, dtype=np.int64),
            trace=state.trace,
            timeline=state.timeline,
            stats=stats,
            placement=state.placement,
        )

    def generate(
        self,
        prompt_tokens: np.ndarray,
        max_new_tokens: int,
        forced_tokens: np.ndarray | None = None,
        sampler=None,
    ) -> GenerationResult:
        """Run prefill plus ``max_new_tokens`` decode steps.

        This is a thin wrapper over the resumable step machine: it
        starts one sequence on a private timeline and steps it to
        completion (the paper's batch-size-one regime).  Schedulers use
        :meth:`start` / :meth:`step` / :meth:`finish` directly to
        interleave sequences.

        Args:
            prompt_tokens: input token ids.
            max_new_tokens: decode steps to run.
            forced_tokens: optional teacher-forced decode inputs.  When
                given, step ``t`` consumes ``forced_tokens[t]`` instead of
                the engine's own previous sample (used by the statistics
                benchmarks so decode routing follows the dataset's topic
                process); the engine's sampled outputs are still returned.
            sampler: callable ``logits -> token id``; defaults to greedy.

        Returns:
            A :class:`GenerationResult` with tokens, trace, timeline, and
            simulated performance statistics.
        """
        state = self.start(SequenceRequest(
            prompt_tokens=prompt_tokens,
            max_new_tokens=max_new_tokens,
            forced_tokens=forced_tokens,
            sampler=sampler,
        ))
        while not state.done:
            self.step(state)
        return self.finish(state)

    # ---- checkpoint / restore ----------------------------------------------------

    def checkpoint_sequence(self, state: SequenceState,
                            include_clock: bool = True) -> dict:
        """Capture one in-flight sequence as a plain-data checkpoint.

        The payload is JSON-compatible and carries a content digest plus
        the engine name and format version, so :meth:`restore_sequence`
        can reject corrupted, foreign, or version-skewed checkpoints
        with a clear error instead of resuming garbage.  Restoring the
        payload (in this process or a fresh one) and stepping to
        completion is bitwise identical to never pausing.

        Args:
            state: a sequence between step calls (any phase).
            include_clock: serialize the timeline's resource clock; a
                scheduler holding the shared clock passes ``False``.
        """
        body = {
            "version": SEQUENCE_CHECKPOINT_VERSION,
            "engine": self.name,
            "state": state.to_state_dict(include_clock=include_clock),
            "policy": self._policy_state_dict(state),
        }
        body["digest"] = canonical_digest(body)
        return body

    def restore_sequence(self, payload: dict,
                         clock=None) -> SequenceState:
        """Rebuild a sequence captured by :meth:`checkpoint_sequence`.

        Args:
            payload: the checkpoint payload.
            clock: resource clock for the restored timeline (the
                scheduler regime); ``None`` restores the serialized
                clock.

        Raises:
            ValueError: for a corrupted payload (digest mismatch), a
                checkpoint from a different engine, or an unsupported
                format version.
        """
        version = payload.get("version")
        if version != SEQUENCE_CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported sequence-checkpoint version {version!r}; "
                f"this build reads version {SEQUENCE_CHECKPOINT_VERSION}"
            )
        body = {key: payload[key] for key in
                ("version", "engine", "state", "policy")}
        digest = canonical_digest(body)
        if digest != payload.get("digest"):
            raise ValueError(
                "sequence checkpoint is corrupted: content digest "
                f"{digest} does not match the recorded "
                f"{payload.get('digest')!r}"
            )
        if payload["engine"] != self.name:
            raise ValueError(
                f"checkpoint belongs to engine {payload['engine']!r}; "
                f"it cannot resume on {self.name!r}"
            )
        state = SequenceState.from_state_dict(payload["state"], clock=clock)
        self._restore_policy(state, payload["policy"])
        self._active_state = state
        return state

    # ---- policy hooks (subclasses override) -------------------------------------

    def _begin_sequence(self, ctx: SequenceState) -> None:
        """Install per-sequence policy state on ``ctx.policy`` (optional)."""

    def _policy_state_dict(self, state: SequenceState):
        """Hook: serialize ``state.policy`` as plain data (or ``None``).

        Engines whose ``_begin_sequence`` installs policy state must
        override this together with :meth:`_restore_policy`.  Ops held
        by policy state (pending prefetches) serialize as their index in
        ``state.timeline.ops``.
        """
        if state.policy is None:
            return None
        raise NotImplementedError(
            f"engine {self.name!r} keeps per-sequence policy state but "
            "does not implement _policy_state_dict/_restore_policy"
        )

    def _restore_policy(self, state: SequenceState, payload) -> None:
        """Hook: reinstall ``state.policy`` from :meth:`_policy_state_dict`."""
        if payload is None:
            return
        raise NotImplementedError(
            f"engine {self.name!r} keeps per-sequence policy state but "
            "does not implement _policy_state_dict/_restore_policy"
        )

    # ---- shared primitives -------------------------------------------------------

    def _device_spec(self, resource: str):
        return self.platform.gpu if resource == GPU else self.platform.cpu

    def _advance(self, gens: list, values: list, kind: type,
                 phase: str) -> list:
        """Send each generator its value; collect the next ``kind`` items.

        Raises:
            RuntimeError: for a generator that ends early or yields out
                of the request/work order.
        """
        items = []
        for gen, value in zip(gens, values):
            try:
                item = gen.send(value)
            except StopIteration:
                raise RuntimeError(
                    f"{phase} pass of {self.name!r} yielded fewer than "
                    "n_blocks request/work pairs"
                ) from None
            if not isinstance(item, kind):
                raise RuntimeError(
                    f"{phase} pass of {self.name!r} yielded "
                    f"{type(item).__name__} where {kind.__name__} was due"
                )
            items.append(item)
        return items

    def _attention_round(self, states: list, requests: list) -> list:
        """Evaluate one round's attention requests as stacked calls.

        The round's block attends once over every member
        (:meth:`~repro.model.moe_block.MoEBlock.attention_rows`), then
        each named gate, in ascending block order, runs once over every
        member whose request names it
        (:meth:`~repro.model.moe_block.MoEBlock.gate_logits_rows`).
        Returns each member's ``(h_att, logits)`` reply, ``logits``
        aligned with its (ascending) ``gate_blocks``.

        Raises:
            RuntimeError: for requests naming different blocks (a
                cohort runs block-locked).
        """
        blocks = self.model.blocks
        block_idx = requests[0].block_idx
        hs, caches, positions = [], [], []
        gating: dict = {}
        for i, (state, request) in enumerate(zip(states, requests)):
            if request.block_idx != block_idx:
                raise RuntimeError(
                    f"cohort of {self.name!r} lost block lock: one round "
                    "requested attention on several blocks"
                )
            hs.append(request.h)
            caches.append(state.caches[block_idx])
            positions.append(request.positions)
            for gate_block in request.gate_blocks:
                gating.setdefault(gate_block, []).append(i)
        h_atts = blocks[block_idx].attention_rows(hs, caches, positions)
        logits: list = [[] for _ in requests]
        for gate_block in sorted(gating):
            idx = gating[gate_block]
            rows = blocks[gate_block].gate_logits_rows(
                [h_atts[i] for i in idx]
            )
            for i, row in zip(idx, rows):
                logits[i].append(row)
        return list(zip(h_atts, logits))

    def _attention(self, ctx: SequenceState, block_idx: int,
                   h: np.ndarray, deps: list[Op], phase: str,
                   gate_blocks: tuple[int, ...]):
        """Non-MoE part of one block on the GPU, as a generator sub-step.

        Yields the block's :class:`~repro.core.batching.
        AttentionRequest` (the driver evaluates it with the cohort's
        other members) and returns ``(h_att, logits, op)``: the
        post-attention states, the gate logits of ``gate_blocks`` in
        order, and the timed attention op.  Use as
        ``h_att, logits, op = yield from self._attention(...)``.
        """
        n_tokens = h.shape[0]
        context_len = len(ctx.caches[block_idx]) + n_tokens
        h_att, logits = yield AttentionRequest(
            block_idx=block_idx, h=h,
            positions=ctx.position + np.arange(n_tokens),
            gate_blocks=gate_blocks,
        )
        duration = self.framework_overhead_s + self.cost_model.non_moe_time(
            self.platform.gpu, n_tokens, context_len
        )
        pricing = ctx.extra.get("gather_pricing")
        if pricing is not None:
            # Gathered-prefill pricing: scaling each cohort member's solo
            # duration by eff(R)/eff(own rows) makes the cohort's summed
            # attention time equal one batched kernel over all R rows.
            # Only cohorts of two or more carry pricing.
            duration *= (
                self.cost_model.attention_batch_efficiency(
                    self.platform.gpu, int(pricing["rows_total"]),
                    self.framework_overhead_s,
                )
                / self.cost_model.attention_batch_efficiency(
                    self.platform.gpu, n_tokens, self.framework_overhead_s,
                )
            )
        op = ctx.timeline.add(
            GPU, duration, deps=deps,
            label=f"attn B{block_idx} {phase}", kind="non_moe",
        )
        return h_att, logits, op

    def _gate(self, ctx: SequenceState, block_idx: int,
              logits: np.ndarray, deps: list[Op]) -> Op:
        """Timed router op on the GPU for precomputed gate ``logits``
        (evaluated in the round's stacked gate call)."""
        n_rows = int(logits.shape[0])
        duration = self.framework_overhead_s + self.cost_model.gate_time(
            self.platform.gpu, n_rows
        )
        pricing = ctx.extra.get("gather_pricing")
        if pricing is not None:
            # Same cohort pricing as _attention; eff(R)/eff(own rows)
            # sums to one batched router launch over all R rows.
            duration *= (
                self.cost_model.gate_batch_efficiency(
                    self.platform.gpu, int(pricing["rows_total"]),
                    self.framework_overhead_s,
                )
                / self.cost_model.gate_batch_efficiency(
                    self.platform.gpu, n_rows, self.framework_overhead_s,
                )
            )
        return ctx.timeline.add(
            GPU, duration, deps=deps, label=f"gate B{block_idx}", kind="gate",
        )

    def _expert_cpu(self, ctx: SequenceState, block_idx: int,
                    expert: int, x: np.ndarray, deps: list[Op],
                    stale_input: bool = False,
                    token_idx: np.ndarray | None = None) -> tuple[np.ndarray, Op]:
        """Execute one expert on the CPU with activation round-trip.

        The hidden states move device-to-host, the expert runs on the CPU,
        and the result returns host-to-device; per the paper these
        activation transfers are ~1/10000 the size of the expert weights.
        ``token_idx`` optionally selects rows of ``x`` as in
        :meth:`~repro.model.moe_block.MoEBlock.expert_forward`.  Returns
        the output and the H2D op that lands it back on the GPU.  Routed
        CPU executions run gathered (:meth:`_execute_block_work_gathered`);
        this single-sequence form serves DAOP's pre-calculation.
        """
        n_tokens = x.shape[0] if token_idx is None else len(token_idx)
        d2h = ctx.timeline.add(
            D2H,
            self.framework_overhead_s
            + self.cost_model.activation_transfer_time(n_tokens),
            deps=deps, label=f"act>cpu B{block_idx}", kind="act_d2h",
        )
        y = self.model.blocks[block_idx].expert_forward(
            expert, x, token_idx=token_idx
        )
        exec_op = ctx.timeline.add(
            CPU,
            self.framework_overhead_s
            + self.cost_model.expert_time(self.platform.cpu, n_tokens),
            deps=[d2h], label=f"E{expert}@B{block_idx} cpu", kind="expert_cpu",
        )
        h2d = ctx.timeline.add(
            H2D,
            self.framework_overhead_s
            + self.cost_model.activation_transfer_time(n_tokens),
            deps=[exec_op], label=f"act>gpu B{block_idx}", kind="act_h2d",
        )
        ctx.counters.cpu_expert_execs += 1
        if stale_input:
            ctx.counters.stale_input_execs += 1
        return y, h2d

    def _upload_expert(self, ctx: SequenceState, block_idx: int,
                       expert: int, deps: list[Op],
                       quant_ratio: float = 1.0) -> Op:
        """Move one expert host -> device and mark it GPU-resident."""
        op = ctx.timeline.add(
            H2D,
            self.framework_overhead_s
            + self.cost_model.expert_transfer_time(quant_ratio),
            deps=deps, label=f"up E{expert}@B{block_idx}", kind="expert_upload",
        )
        ctx.placement.set_device(block_idx, expert, DeviceKind.GPU)
        ctx.counters.expert_uploads += 1
        return op

    def _drop_expert(self, ctx: SequenceState, block_idx: int,
                     expert: int) -> None:
        """Free a device copy (host copy of inference weights stays valid)."""
        ctx.placement.set_device(block_idx, expert, DeviceKind.CPU)

    def _record_activation_counters(self, ctx: SequenceState,
                                    block_idx: int,
                                    experts: np.ndarray | list[int]) -> None:
        """Update GPU-residency hit counters for activated experts."""
        counters = ctx.counters
        for expert in np.atleast_1d(experts).tolist():
            counters.activated_total += 1
            if ctx.placement.is_on_gpu(block_idx, expert):
                counters.activated_gpu_resident += 1

    # ---- standard prefill / decode skeletons ------------------------------------
    #
    # Most engines share the same dataflow and differ only in what happens
    # *before* each block's experts execute (migrations, uploads, swaps).
    # The hooks below express exactly that difference.

    def _prepare_prefill_block(self, ctx: SequenceState, block_idx: int,
                               activated: np.ndarray, activity: np.ndarray,
                               deps: list[Op]) -> BlockPlan:
        """Hook: arrange residency for a prefill block's activated experts.

        Returns a :class:`BlockPlan` carrying per-expert extra
        dependencies (e.g. upload ops) and any forced-GPU executions.
        """
        return BlockPlan()

    def _prepare_decode_block(self, ctx: SequenceState, block_idx: int,
                              activated: np.ndarray,
                              deps: list[Op]) -> BlockPlan:
        """Hook: arrange residency for a decode block's activated experts."""
        return BlockPlan()

    # ---- block-work protocol ------------------------------------------------------
    #
    # Decode policies and the shared prefill pass are generators
    # yielding one AttentionRequest (via _attention) and one BlockWork
    # per block (see repro.core.batching); _step_cohort evaluates the
    # requests stacked and executes the described expert work, gathered
    # with the same-expert calls of the cohort's other sequences.

    def _prefill_blocks_standard(self, ctx: SequenceState,
                                 prompt_tokens: np.ndarray):
        """Shared prefill pass as a block-work generator.

        Per block: attend -> gate -> prepare -> describe the routed
        expert executions.  Yields exactly ``n_blocks`` request/work
        pairs and returns ``(h_last, done_op)``; a prompt-length
        cohort's same-expert calls merge into shared kernels.
        """
        from repro.core.allocation import activity_from_routing

        h = self.model.embed(prompt_tokens)
        n_tokens = prompt_tokens.size
        last_ops: list[Op] = []
        for block_idx in range(self.model.n_blocks):
            h_att, (logits,), attn_op = yield from self._attention(
                ctx, block_idx, h, last_ops, PREFILL, (block_idx,)
            )
            gate_op = self._gate(ctx, block_idx, logits, [attn_op])
            routing = self.model.blocks[block_idx].route_from_logits(logits)
            selected = routing.experts.tolist()
            for t, experts in enumerate(selected):
                ctx.trace.record(PREFILL, block_idx, ctx.position + t, experts)
            activity = activity_from_routing(
                routing.experts, self.model.n_experts
            )
            plan = self._prepare_prefill_block(
                ctx, block_idx, np.unique(routing.experts), activity,
                [gate_op],
            )
            for experts in selected:
                self._record_activation_counters(ctx, block_idx, experts)
            h, expert_ops = yield from self._routed_block_work(
                ctx, block_idx, h_att, routing.experts, routing.weights,
                [gate_op], plan.extra_deps, plan.force_gpu,
            )
            last_ops = expert_ops
        ctx.position += n_tokens
        done = ctx.timeline.add(
            GPU, 0.0, deps=last_ops, label="prefill done", kind="sync"
        )
        return h[-1], done

    def _routed_block_work(
        self,
        ctx: SequenceState,
        block_idx: int,
        h_att: np.ndarray,
        experts_per_token: np.ndarray,
        weights: np.ndarray,
        deps: list[Op],
        extra_deps: dict[int, list[Op]] | None = None,
        force_gpu: set[int] | None = None,
    ):
        """Describe one block's routed expert executions, then combine.

        A generator: yields one :class:`~repro.core.batching.BlockWork`
        describing each activated expert's execution (ascending expert
        order, each with its dependencies and location), receives
        the driver's ``(output, op)`` results back, and returns the
        combined block output plus the expert ops.  Use as
        ``h, ops = yield from self._routed_block_work(...)``.
        """
        extra_deps = extra_deps or {}
        force_gpu = force_gpu or set()
        block = self.model.blocks[block_idx]
        n_tokens, top_k = experts_per_token.shape
        groups = group_by_expert(experts_per_token.tolist())
        calls: list[ExpertCall] = []
        for expert, (token_idx, _) in groups.items():
            on_gpu = (expert in force_gpu
                      or ctx.placement.is_on_gpu(block_idx, expert))
            calls.append(ExpertCall(
                expert=expert,
                location=GPU_LOC if on_gpu else CPU_LOC,
                h_att=h_att,
                deps=tuple(deps + extra_deps.get(expert, [])),
                token_idx=token_idx,
            ))
        results = yield BlockWork(block_idx=block_idx, calls=tuple(calls))
        outs = np.zeros(
            (n_tokens, top_k, h_att.shape[1]), dtype=np.float32
        )
        ops: list[Op] = []
        for (_, slots), (y, op) in zip(groups.values(), results):
            ops.append(op)
            for t, slot, row in slots:
                outs[t, slot] = y[row]
        h_out = block.combine(h_att, outs, weights)
        return h_out, ops

    def _decode_blocks_standard(self, ctx: SequenceState, token: int,
                                deps: list[Op]):
        """Shared decode policy: true gate, experts run where they live.

        A generator yielding exactly ``n_blocks`` request/work pairs and
        returning ``(h_last, done_op)``.
        """
        h = self.model.embed(np.asarray([token]))
        last_ops = list(deps)
        for block_idx in range(self.model.n_blocks):
            h_att, (logits,), attn_op = yield from self._attention(
                ctx, block_idx, h, last_ops, DECODE, (block_idx,)
            )
            gate_op = self._gate(ctx, block_idx, logits, [attn_op])
            routing = self.model.blocks[block_idx].route_from_logits(logits)
            selected = routing.experts[0].tolist()
            ctx.trace.record(DECODE, block_idx, ctx.position, selected)
            self._record_activation_counters(ctx, block_idx, selected)
            plan = self._prepare_decode_block(
                ctx, block_idx, routing.experts[0], [gate_op]
            )
            h, last_ops = yield from self._routed_block_work(
                ctx, block_idx, h_att, routing.experts, routing.weights,
                [gate_op], plan.extra_deps, plan.force_gpu,
            )
        ctx.position += 1
        done = ctx.timeline.add(
            GPU, 0.0, deps=last_ops, label="decode done", kind="sync"
        )
        return h[-1], done

    # ---- cohort execution ---------------------------------------------------------

    def _execute_block_work_gathered(self, works: list,
                                     gather_stats=None,
                                     phase: str = SEQ_DECODE) -> list:
        """Execute one block round of a cohort, gathered across sequences.

        Calls that target the same ``(block, expert, location)`` run as
        one simulated kernel charged the cost model's batched time over
        all participants' rows (weight bytes read once, one framework
        overhead), sliced into per-sequence ops.  A CPU group's three
        stages (activations device-to-host, CPU execution, result
        host-to-device) each run as one such kernel.  Functional values
        come from one stacked
        :meth:`~repro.model.moe_block.MoEBlock.expert_forward_rows` call
        per group, so each sequence's outputs and compute-cache keys
        never depend on the cohort.

        Args:
            works: ``(state, BlockWork)`` per sequence, admission order.
            gather_stats: optional
                :class:`~repro.core.batching.GatherStats` accumulator.
            phase: which phase's stats bucket the kernels land in
                (``"prefill"`` additionally counts the ``prefill_*``
                fields).

        Returns:
            Per sequence, the ``(output, op)`` list aligned with its
            calls.  Groups execute in first-request order (sequence,
            then call: the insertion order of
            :func:`~repro.core.batching.group_block_work`), so a cohort
            of one runs its calls in exactly the order its policy
            yielded them, and the whole schedule is reproducible.
        """
        overhead = self.framework_overhead_s
        cost = self.cost_model
        results = [[None] * len(work.calls) for _, work in works]
        groups = group_block_work([work for _, work in works])
        for (block_idx, expert, location), participants in groups.items():
            states, segments, deps = [], [], []
            for i, j in participants:
                state, work = works[i]
                call = work.calls[j]
                states.append(state)
                segments.append((call.h_att, call.token_idx))
                deps.append(call.deps)
            ys = self.model.blocks[block_idx].expert_forward_rows(
                expert, segments
            )
            counts = [y.shape[0] for y in ys]
            rows = sum(counts)
            if location == GPU_LOC:
                ops = self._add_slices(
                    GPU, states, counts,
                    overhead + cost.expert_time(self.platform.gpu, rows),
                    deps, f"E{expert}@B{block_idx} gpu", "expert_gpu",
                )
                for state in states:
                    state.counters.gpu_expert_execs += 1
            else:
                act = overhead + cost.activation_transfer_time(rows)
                ops = self._add_slices(D2H, states, counts, act, deps,
                                       f"act>cpu B{block_idx}", "act_d2h")
                ops = self._add_slices(
                    CPU, states, counts,
                    overhead + cost.expert_time(self.platform.cpu, rows),
                    ops, f"E{expert}@B{block_idx} cpu", "expert_cpu",
                )
                ops = self._add_slices(H2D, states, counts, act, ops,
                                       f"act>gpu B{block_idx}", "act_h2d")
                for state in states:
                    state.counters.cpu_expert_execs += 1
            for (i, j), y, (op,) in zip(participants, ys, ops):
                results[i][j] = (y, op)
            if gather_stats is not None:
                gather_stats.expert_kernels += 1
                gather_stats.expert_ops += len(participants)
                gather_stats.gathered_rows += rows
                gather_stats.max_group_size = max(
                    gather_stats.max_group_size, len(participants)
                )
                if phase == SEQ_PREFILL:
                    gather_stats.prefill_expert_kernels += 1
                    gather_stats.prefill_expert_ops += len(participants)
        return results

    @staticmethod
    def _add_slices(resource: str, states: list, counts: list,
                    total: float, deps: list, label: str, kind: str) -> list:
        """Record one gathered kernel as one slice op per participant.

        Participant ``k`` records ``total * (counts[k] / rows)`` seconds,
        its share of the kernel's ``rows = sum(counts)``, in its *own*
        timeline with its *own* dependencies ``deps[k]``, so
        per-sequence counter conservation, energy integration and
        causality audits hold unchanged; the coupling between sequences
        flows through the shared clock.  With several participants the
        lane is first held to their latest dependency end, so the
        shared kernel starts once every input is ready.  A lone
        participant takes the whole kernel (``total * (r / r)`` is
        exactly ``total``) and needs no hold: its op waits on its own
        dependencies anyway.  Returns each participant's op as a one-op
        dependency tuple, ready to chain the next stage.
        """
        if len(states) == 1:
            return [(states[0].timeline.add(
                resource, total, deps=deps[0], label=label, kind=kind,
            ),)]
        rows = sum(counts)
        states[0].timeline.clock.hold(resource, max(
            (op.end for ops in deps for op in ops), default=0.0
        ))
        return [
            (state.timeline.add(resource, total * (count / rows),
                                deps=ops, label=label, kind=kind),)
            for state, count, ops in zip(states, counts, deps)
        ]

    def _lm_head_batch(self, states: list, h_lasts: list, done_ops: list,
                       gather_stats=None,
                       phase: str = SEQ_DECODE) -> tuple[list, list]:
        """Final norm + LM head gathered over every sequence's last token.

        One simulated launch over ``len(states)`` rows, sliced into
        per-sequence ops; logits come from one stacked call whose rows
        (and cache keys) equal solo runs', so sampling stays bitwise
        identical.
        """
        n = len(states)
        logits_rows = self.model.lm_logits_rows(h_lasts)
        duration = self.framework_overhead_s + self.cost_model.lm_head_time(
            self.platform.gpu, n
        )
        ops = self._add_slices(
            GPU, states, [1] * n, duration, [(done,) for done in done_ops],
            "lm_head", "lm_head",
        )
        if gather_stats is not None:
            gather_stats.lm_head_kernels += 1
            gather_stats.lm_head_ops += n
            if phase == SEQ_PREFILL:
                gather_stats.prefill_lm_head_kernels += 1
                gather_stats.prefill_lm_head_ops += n
        return logits_rows, [op for op, in ops]

    # Default implementations: engines that follow the standard dataflow
    # simply inherit these.

    def _prefill_blocks(self, ctx: SequenceState,
                        prompt_tokens: np.ndarray):
        """Policy hook: the prefill block-work generator for one prompt.

        An engine with a custom prefill policy overrides this.  Must
        yield exactly ``n_blocks`` request/work pairs (an
        :class:`~repro.core.batching.AttentionRequest` through
        :meth:`_attention`, then a :class:`BlockWork`) and return
        ``(h_last, done_op)``.
        """
        return (yield from self._prefill_blocks_standard(ctx, prompt_tokens))

    def _decode_blocks(self, ctx: SequenceState, token: int,
                       deps: list[Op]):
        """Policy hook: the decode block-work generator for one token.

        Engines with a custom decode policy (DAOP's predictive
        pre-calculation, Pre-gated's prefetch) override this.  Must
        yield exactly ``n_blocks`` request/work pairs and return
        ``(h_last, done_op)``.
        """
        return (yield from self._decode_blocks_standard(ctx, token, deps))
