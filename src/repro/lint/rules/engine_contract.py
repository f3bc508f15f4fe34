"""Engine-contract rules: the "identical substrate" guarantee as lint.

The paper's speedups are only meaningful if every baseline runs on the
same cost model, timeline semantics, and trace instrumentation as DAOP
(engine.py's stated contract).  Five things would silently break that:

1. a baseline borrowing DAOP's sequence-aware migration planner
   (Algorithm 1, SS IV-B) -- the data-aware allocation *is* the
   contribution under test, so baselines must not call it;
2. a baseline overriding the shared substrate primitives (``generate``,
   ``_upload_expert``, ``_execute_block_work_gathered``, ...) instead of
   the policy hooks, which would let it charge different costs for the
   same op;
3. any engine-layer code reaching into ``_``-private attributes of the
   Timeline / CostModel / ExpertPlacement objects, bypassing the public
   accounting API;
4. engine or audit code invoking expert math directly
   (``SwiGLUExpert.__call__`` / ``block.experts[i](...)``) instead of the
   cache-aware ``MoEBlock`` stage API -- a direct call bypasses the
   content-addressed compute cache and the shared ``ffn_norm`` hoist, so
   its output would not participate in the cache-parity guarantee;
5. an engine implementing only half of the checkpoint policy-hook pair
   (``_policy_state_dict`` without ``_restore_policy`` or vice versa) --
   a one-sided implementation checkpoints state it can never reinstall
   (or restores state it never saved), breaking the resume-parity
   guarantee silently until the first mid-decode restore.

Note the rules deliberately do NOT forbid baselines from *uploading*
experts during decode: on-demand caching and prefetching baselines
(MoE-OnDemand, Mixtral-Offloading, Pre-gated MoE, ...) upload as their
published behavior.  What is forbidden statically is using DAOP's swap
planner; "migration stays in prefill when ``decode_realloc_interval`` is
None" is a *runtime* property, checked on finished results by
:func:`repro.audit.invariants.check_prefill_only_migration`.
"""

from __future__ import annotations

import ast

from repro.lint.registry import LintContext, Rule, dotted_name, register

#: Modules that implement DAOP's data-aware migration machinery.
_MIGRATION_MODULES = ("repro.core.allocation",)

#: Names from those modules that baselines must never touch.
_MIGRATION_NAMES = frozenset({"plan_block_swaps", "SwapPlan"})

#: BaseEngine substrate primitives baselines may use but never redefine.
#: The prefill and decode passes (``_prefill_blocks``,
#: ``_decode_blocks``) and the true-gated decode block body
#: (``_decode_block``) are substrate: every engine runs the same block
#: loop and differs only in the policy hooks it calls (``predictor``
#: with ``_look_ahead`` and ``_predicted_block``,
#: ``_prepare_prefill_block``, ``_prepare_decode_block``,
#: ``_transfer_expert``, ``_after_decode_token``), so no baseline can
#: copy the loop and charge a block differently.  So is the one step
#: body that executes the described work (``_step_cohort``, its entries
#: ``step``, ``step_batch``, ``step_prefill_batch``, its stacked
#: attention round ``_advance``/``_attention_round``, which also drives
#: the gathered pre-calculation sub-round).
_SUBSTRATE_METHODS = frozenset({
    "generate", "start", "step", "step_batch", "step_prefill_batch",
    "_step_cohort", "_advance", "_attention_round", "finish",
    "checkpoint_sequence", "restore_sequence",
    "_attention", "_gate", "_upload_expert", "_admit_expert",
    "_ensure_resident", "_lm_head_batch",
    "_record_activation_counters",
    "_prefill_blocks", "_decode_blocks", "_decode_block",
    "_routed_block_work", "_execute_block_work_gathered",
    "_land_uploads", "_add_slices", "_device_spec",
})

#: The checkpoint policy-hook pair every engine implements together.
_CHECKPOINT_HOOK_PAIR = ("_policy_state_dict", "_restore_policy")


@register
class BaselineMigrationRule(Rule):
    """Baselines may not use DAOP's migration planner (SS IV-B)."""

    name = "baseline-migration"
    code = "ENG001"
    description = ("baseline engines may not import or call DAOP's "
                   "sequence-aware migration primitives (Algorithm 1)")

    def check(self, ctx: LintContext):
        """Flag migration-module imports and planner names in baselines."""
        if not ctx.in_subpath("core", "baselines"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith(_MIGRATION_MODULES):
                        yield self.diag(
                            ctx, node,
                            f"baseline imports migration module "
                            f"'{alias.name}'; Algorithm 1 swaps are "
                            "DAOP-only",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith(_MIGRATION_MODULES):
                    yield self.diag(
                        ctx, node,
                        f"baseline imports from '{node.module}'; "
                        "Algorithm 1 swaps are DAOP-only",
                    )
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load) and \
                    node.id in _MIGRATION_NAMES:
                yield self.diag(
                    ctx, node,
                    f"baseline references migration primitive "
                    f"'{node.id}'; Algorithm 1 swaps are DAOP-only",
                )


@register
class SubstrateOverrideRule(Rule):
    """Baselines customize policy hooks, never substrate primitives."""

    name = "substrate-override"
    code = "ENG002"
    description = ("baseline engines may not override BaseEngine "
                   "substrate primitives (generate/_expert_*/...); only "
                   "the policy hooks")

    def check(self, ctx: LintContext):
        """Flag substrate-primitive method definitions in baselines."""
        if not ctx.in_subpath("core", "baselines"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)) \
                        and stmt.name in _SUBSTRATE_METHODS:
                    yield self.diag(
                        ctx, stmt,
                        f"baseline '{node.name}' overrides substrate "
                        f"primitive '{stmt.name}'; engines must be "
                        "compared on an identical substrate",
                    )


@register
class CheckpointHookPairRule(Rule):
    """Checkpoint policy hooks come in pairs: save with restore."""

    name = "checkpoint-hook-pair"
    code = "ENG006"
    description = ("an engine class defining one of _policy_state_dict/"
                   "_restore_policy must define both; a one-sided "
                   "implementation breaks resume parity silently")

    def check(self, ctx: LintContext):
        """Flag engine classes defining exactly one hook of the pair.

        ``BaseEngine`` itself defines both (as ``NotImplementedError``
        stubs), so the pairing requirement applies uniformly to every
        class in ``repro/core`` — a subclass inheriting both stubs is
        fine, one overriding a single side is not.
        """
        if not ctx.in_subpath("core"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            defined = {
                stmt.name for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))
                and stmt.name in _CHECKPOINT_HOOK_PAIR
            }
            if len(defined) == 1:
                present = defined.pop()
                missing = next(h for h in _CHECKPOINT_HOOK_PAIR
                               if h != present)
                yield self.diag(
                    ctx, node,
                    f"engine '{node.name}' defines '{present}' without "
                    f"'{missing}'; the checkpoint policy hooks must be "
                    "implemented as a pair",
                )


@register
class PrivateSubstrateAccessRule(Rule):
    """Engine code must use public Timeline/CostModel/placement APIs."""

    name = "private-substrate"
    code = "ENG003"
    description = ("core engine code may not access _-private attributes "
                   "of other objects (Timeline/CostModel/placement "
                   "internals)")

    def check(self, ctx: LintContext):
        """Flag ``obj._attr`` where ``obj`` is not ``self``/``cls``."""
        if not ctx.in_subpath("core"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            base = node.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                continue
            owner = dotted_name(base) or "<expr>"
            yield self.diag(
                ctx, node,
                f"access to private attribute '{owner}.{attr}'; use the "
                "substrate's public API",
            )


@register
class ExpertStageApiRule(Rule):
    """Engine/audit code runs expert math via the MoEBlock stage API."""

    name = "expert-stage-api"
    code = "ENG005"
    description = ("engine and audit code must invoke expert math through "
                   "the cache-aware MoEBlock stage API "
                   "(expert_forward/gate_logits/...), never by calling "
                   "SwiGLUExpert or block.experts[i] directly")

    def check(self, ctx: LintContext):
        """Flag direct ``<obj>.experts[i](...)`` calls and SwiGLUExpert
        imports in ``repro/core`` and ``repro/audit``.

        Subscript *reads* of an ``experts`` attribute stay legal — routing
        decisions and trace events expose ``experts`` arrays that engine
        code inspects constantly; only *calling* the subscripted value
        executes expert math outside the stage API.
        """
        if not (ctx.in_subpath("core") or ctx.in_subpath("audit")):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Subscript) \
                        and isinstance(func.value, ast.Attribute) \
                        and func.value.attr == "experts":
                    owner = dotted_name(func.value.value) or "<expr>"
                    yield self.diag(
                        ctx, node,
                        f"direct expert call '{owner}.experts[...](...)' "
                        "bypasses the compute cache; use "
                        "MoEBlock.expert_forward",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro.model.experts"):
                        yield self.diag(
                            ctx, node,
                            f"imports expert module '{alias.name}'; expert "
                            "math must go through the MoEBlock stage API",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro.model.experts") or (
                    node.module.startswith("repro.model")
                    and any(a.name == "SwiGLUExpert" for a in node.names)
                ):
                    yield self.diag(
                        ctx, node,
                        f"imports SwiGLUExpert from '{node.module}'; expert "
                        "math must go through the MoEBlock stage API",
                    )
