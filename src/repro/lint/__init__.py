"""daoplint: AST-based invariant checker for DAOP.

The reproduction rests on invariants the paper states in prose but code
cannot express locally: migration is prefill-only (SS IV-B, Algorithm 1),
prediction fires only from the configured start block onward (SS IV-C),
every engine compares on an identical substrate, and the simulation is
deterministic end-to-end.  This package enforces them mechanically:

- a static analyzer (``repro lint`` / ``python -m repro.lint``) with a
  pluggable rule registry, ``path:line:col`` diagnostics, and per-line
  ``# daoplint: disable=RULE`` suppressions
  (:mod:`repro.lint.runner`, :mod:`repro.lint.rules`);
- a whole-program semantic layer (``repro lint --semantic``) with a
  project index, call graph, CFGs, and flow-sensitive rule families
  (:mod:`repro.lint.semantics`); findings can be exported as SARIF
  (:mod:`repro.lint.sarif`) for GitHub code scanning.

Runtime invariants are not linted: ``repro.memory.Residency`` refuses
an admission past a block's slots, and ``repro.audit`` checks lane
order and prefill-only migration on finished results.

See ``docs/linting.md`` for every rule and its paper justification and
``docs/static-analysis.md`` for the semantic framework.
"""

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import (
    LintContext,
    Rule,
    all_rules,
    dotted_name,
    get_rule,
    register,
)
from repro.lint.runner import (
    LintReport,
    lint_paths,
    lint_source,
    package_root,
    run_lint,
)
from repro.lint.sarif import report_to_sarif, write_sarif
from repro.lint.semantics import (
    SemanticContext,
    SemanticRule,
    all_semantic_rules,
    get_semantic_rule,
    register_semantic,
    run_semantic_lint,
    semantic_lint_source,
)
from repro.lint.suppressions import SuppressionIndex, SuppressionMarker

__all__ = [
    "Diagnostic",
    "Severity",
    "LintContext",
    "Rule",
    "all_rules",
    "dotted_name",
    "get_rule",
    "register",
    "LintReport",
    "lint_paths",
    "lint_source",
    "package_root",
    "run_lint",
    "report_to_sarif",
    "write_sarif",
    "SemanticContext",
    "SemanticRule",
    "all_semantic_rules",
    "get_semantic_rule",
    "register_semantic",
    "run_semantic_lint",
    "semantic_lint_source",
    "SuppressionIndex",
    "SuppressionMarker",
]
