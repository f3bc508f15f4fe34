"""Timeline-integrity rules: the op record is append-only, by one owner.

Every paper number in this repo — makespans, utilizations, energy
integrals, critical paths — is derived from ``Timeline.ops``.  The
timeline resolves each op's start/end *at submission* against per-lane
FIFO state, so the record is only meaningful if it is built exclusively
through ``Timeline.add()``: code elsewhere appending, reordering, or
rewriting ``ops`` entries would desynchronize the schedule from the
per-resource clocks and corrupt every downstream metric.  ``ops`` is a
read-only view, so such a write fails at run time too; this rule
reports it statically.  Reading ``.ops`` (iteration, indexing,
rendering) is of course fine and common.  The timeline's columns
(``starts``, ``ends``, ``labels``, ...) are the same record and are
guarded the same way.

This is one of the ROADMAP's candidate rules: forbid ``Timeline.ops``
mutation outside :mod:`repro.hardware`, statically.
"""

from __future__ import annotations

import ast

from repro.lint.registry import LintContext, Rule, dotted_name, register

#: list methods that mutate in place.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "pop", "remove", "clear", "sort",
    "reverse",
})


#: Attributes holding the timeline's op record: the ``ops`` view and
#: the columns behind it.
_RECORD_ATTRIBUTES = frozenset({
    "ops", "durations", "starts", "ends", "resources", "kinds", "labels",
    "dep_offsets", "dep_flat",
})


def _is_record_attribute(node) -> bool:
    """Whether ``node`` is an ``<expr>.ops`` (or column) attribute access."""
    return isinstance(node, ast.Attribute) and node.attr in _RECORD_ATTRIBUTES


def _owner(node) -> str:
    """Readable owner expression for diagnostics."""
    return dotted_name(node) or "<expr>"


@register
class TimelineOpsMutationRule(Rule):
    """``Timeline.ops`` may only be mutated inside ``repro.hardware``."""

    name = "timeline-ops-mutation"
    code = "TL001"
    description = ("Timeline.ops is append-only via Timeline.add(); no "
                   "mutation of a .ops attribute (or a timeline column) "
                   "outside repro.hardware")

    def check(self, ctx: LintContext):
        """Flag writes to any ``.ops`` attribute (or timeline column),
        and attribute writes through an ``<expr>.ops[...]`` op handle,
        outside the owner package.

        The check is name-based (any attribute called ``ops``,
        ``starts``, ``labels``, ...), matching the bluntness of the
        other static rules: the only such attributes in the library are
        the timeline's op record, and a false positive on a future
        unrelated one is a naming smell worth flagging anyway.
        """
        if ctx.in_subpath("hardware"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATING_METHODS \
                    and _is_record_attribute(node.func.value):
                yield self.diag(
                    ctx, node,
                    f"'{_owner(node.func.value.value)}"
                    f".{node.func.value.attr}"
                    f".{node.func.attr}(...)' mutates the timeline op "
                    "record; ops are appended only by Timeline.add() in "
                    "repro.hardware",
                )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    yield from self._check_write(ctx, target)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                yield from self._check_write(ctx, node.target)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    yield from self._check_write(ctx, target)

    def _check_write(self, ctx: LintContext, target):
        """Diagnostics for one assignment/deletion target."""
        # x.ops = ... / del x.ops
        if _is_record_attribute(target):
            yield self.diag(
                ctx, target,
                f"assignment to '{_owner(target.value)}.{target.attr}' "
                "replaces the timeline op record; build schedules through "
                "Timeline.add() in repro.hardware",
            )
        # x.ops[i] = ... / del x.ops[i] / x.ops[i:j] = ...
        elif isinstance(target, ast.Subscript) \
                and _is_record_attribute(target.value):
            yield self.diag(
                ctx, target,
                f"item write on '{_owner(target.value.value)}"
                f".{target.value.attr}' "
                "mutates the timeline op record; ops are append-only "
                "via Timeline.add() in repro.hardware",
            )
        # x.ops[i].start = ... : a write through an op handle
        elif isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Subscript) \
                and isinstance(target.value.value, ast.Attribute) \
                and target.value.value.attr == "ops":
            yield self.diag(
                ctx, target,
                f"attribute write through an op handle "
                f"'{_owner(target.value.value.value)}.ops[...]"
                f".{target.attr}' rewrites the timeline op record; op "
                "times are resolved only by Timeline.add() in "
                "repro.hardware",
            )
        # (a, b.ops) = ... style tuple targets
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._check_write(ctx, element)
