"""Unit tests for each daoplint rule family (positive + negative)."""

import textwrap

import pytest

from repro.lint import all_rules, get_rule, lint_source

CORE = "src/repro/core/sample.py"
BASELINE = "src/repro/core/baselines/sample.py"
INIT = "src/repro/memory/__init__.py"
HARDWARE = "src/repro/hardware/sample.py"


def lint(source, path=CORE, select=None):
    """Lint a dedented snippet against a virtual repo path."""
    return lint_source(textwrap.dedent(source), path=path, select=select)


def codes(diagnostics):
    """The set of diagnostic codes found."""
    return {d.code for d in diagnostics}


def test_registry_exposes_all_rule_families():
    registered = {rule.code for rule in all_rules()}
    assert {"DET001", "DET002", "DET003", "LAY001", "ENG001", "ENG002",
            "ENG003", "ENG005", "ENG006", "API001", "API002",
            "API003", "API004", "TL001", "DOC001", "NUM001"} <= registered
    assert get_rule("stdlib-random").code == "DET001"
    assert get_rule("checkpoint-hook-pair").code == "ENG006"
    assert get_rule("DET001").name == "stdlib-random"
    assert get_rule("timeline-ops-mutation").code == "TL001"


# ---- determinism --------------------------------------------------------------


def test_stdlib_random_flagged():
    diags = lint('"""Doc."""\nimport random\n', select=["stdlib-random"])
    assert codes(diags) == {"DET001"}
    diags = lint('"""Doc."""\nfrom random import choice\n',
                 select=["stdlib-random"])
    assert codes(diags) == {"DET001"}


def test_legacy_numpy_random_flagged():
    diags = lint(
        '''\
        """Doc."""
        import numpy as np
        x = np.random.rand(3)
        ''',
        select=["unseeded-numpy"],
    )
    assert codes(diags) == {"DET002"}
    assert diags[0].line == 3


def test_unseeded_default_rng_flagged_but_seeded_ok():
    bad = lint('"""Doc."""\nimport numpy as np\n'
               'rng = np.random.default_rng()\n',
               select=["unseeded-numpy"])
    assert codes(bad) == {"DET002"}
    good = lint('"""Doc."""\nimport numpy as np\n'
                'rng = np.random.default_rng(7)\n'
                'ss = np.random.SeedSequence([1, 2])\n',
                select=["unseeded-numpy"])
    assert good == []


def test_wall_clock_flagged():
    diags = lint(
        '''\
        """Doc."""
        import time
        from datetime import datetime

        def now():
            """Doc."""
            return time.time() + datetime.now().timestamp()
        ''',
        select=["wall-clock"],
    )
    assert len(diags) == 2
    diags = lint('"""Doc."""\nfrom time import perf_counter\n',
                 select=["wall-clock"])
    assert codes(diags) == {"DET003"}


def test_timeline_usage_not_flagged():
    diags = lint(
        '''\
        """Doc."""
        from repro.hardware.timeline import Timeline

        def makespan(timeline):
            """Doc."""
            return timeline.makespan
        ''',
        select=["stdlib-random", "unseeded-numpy", "wall-clock"],
    )
    assert diags == []


# ---- import layering ----------------------------------------------------------


def test_lower_layer_may_not_import_core():
    diags = lint('"""Doc."""\nfrom repro.core.engine import BaseEngine\n',
                 path="src/repro/model/sample.py",
                 select=["import-layering"])
    assert codes(diags) == {"LAY001"}
    assert "repro.model" in diags[0].message


def test_core_may_import_substrate_but_not_cli():
    good = lint('"""Doc."""\nfrom repro.memory.placement import '
                'ExpertPlacement\n', select=["import-layering"])
    assert good == []
    bad = lint('"""Doc."""\nimport repro.cli\n',
               select=["import-layering"])
    assert codes(bad) == {"LAY001"}


def test_cli_may_import_everything():
    diags = lint('"""Doc."""\nfrom repro.core import build_engine\n'
                 'from repro.lint import run_lint\n',
                 path="src/repro/cli.py", select=["import-layering"])
    assert diags == []


def test_unregistered_package_flagged():
    diags = lint('"""Doc."""\n',
                 path="src/repro/telemetry/sample.py",
                 select=["package-registration"])
    assert codes(diags) == {"LAY002"}
    assert "repro.telemetry" in diags[0].message


def test_registered_packages_and_root_modules_pass():
    for path in ("src/repro/core/sample.py",
                 "src/repro/lint/semantics/sample.py",
                 "src/repro/cli.py",
                 "src/repro/__init__.py"):
        assert lint('"""Doc."""\n', path=path,
                    select=["package-registration"]) == []


# ---- engine contract -----------------------------------------------------------


def test_baseline_may_not_import_migration_planner():
    source = '''\
        """Doc."""
        from repro.core.allocation import plan_block_swaps
        '''
    assert codes(lint(source, path=BASELINE,
                      select=["baseline-migration"])) == {"ENG001"}
    # The same import is fine outside core/baselines/ (DAOP itself).
    assert lint(source, path=CORE, select=["baseline-migration"]) == []


def test_baseline_may_not_override_substrate_primitives():
    source = '''\
        """Doc."""
        from repro.core.engine import BaseEngine

        class Sneaky(BaseEngine):
            """Doc."""

            def _upload_expert(self, ctx, block_idx, expert, deps):
                """Doc."""
                return None

            def _prepare_decode_block(self, ctx, block_idx, act, deps):
                """Doc."""
                return {}
        '''
    diags = lint(source, path=BASELINE, select=["substrate-override"])
    assert codes(diags) == {"ENG002"}
    assert len(diags) == 1  # the hook override is allowed


def test_baseline_may_not_override_the_shared_residency_decision():
    """Baselines choose an eviction policy and a transfer; the hit/miss/
    evict/stream decision itself is substrate."""
    source = '''\
        """Doc."""
        from repro.core.engine import BaseEngine

        class Sneaky(BaseEngine):
            """Doc."""

            def _ensure_resident(self, ctx, block_idx, experts, deps):
                """Doc."""
                return None

            def _transfer_expert(self, ctx, block_idx, expert, deps):
                """Doc."""
                return None
        '''
    diags = lint(source, path=BASELINE, select=["substrate-override"])
    assert codes(diags) == {"ENG002"}
    assert len(diags) == 1  # the transfer hook override is allowed
    assert "_ensure_resident" in diags[0].message


@pytest.mark.parametrize("method", ["_decode_blocks", "_decode_block",
                                    "_prefill_blocks"])
def test_baseline_may_not_copy_the_block_loop(method):
    """The prefill and decode passes are substrate: a baseline acts
    through the block hooks, never through its own copy of the loop."""
    source = f'''\
        """Doc."""
        from repro.core.engine import BaseEngine

        class Sneaky(BaseEngine):
            """Doc."""

            def {method}(self, ctx, *args):
                """Doc."""
                return None

            def _look_ahead(self, ctx, block_idx, h_att, prediction, gate):
                """Doc."""
                return None
        '''
    diags = lint(source, path=BASELINE, select=["substrate-override"])
    assert codes(diags) == {"ENG002"}
    assert len(diags) == 1  # the look-ahead hook override is allowed
    assert method in diags[0].message


def test_private_substrate_access_flagged_only_off_self():
    source = '''\
        """Doc."""

        class Engine:
            """Doc."""

            def peek(self, ctx):
                """Doc."""
                self._own = 1  # fine: own private state
                return ctx.timeline._resource_free
        '''
    diags = lint(source, path=BASELINE, select=["private-substrate"])
    assert codes(diags) == {"ENG003"}
    assert "timeline._resource_free" in diags[0].message


# ---- API hygiene ---------------------------------------------------------------


def test_module_docstring_required():
    diags = lint("x = 1\n", select=["module-docstring"])
    assert codes(diags) == {"API001"}


def test_dunder_all_missing_and_dangling_entries():
    missing = lint('"""Doc."""\nfrom repro.memory.cache import '
                   'CacheConfig\n', path=INIT, select=["dunder-all"])
    assert codes(missing) == {"API002"}
    dangling = lint('"""Doc."""\n__all__ = ["Ghost"]\n', path=INIT,
                    select=["dunder-all"])
    assert any("Ghost" in d.message for d in dangling)
    dupes = lint('"""Doc."""\nx = 1\n__all__ = ["x", "x"]\n', path=INIT,
                 select=["dunder-all"])
    assert any("duplicate" in d.message for d in dupes)


def test_export_drift_detected_for_own_package_imports():
    source = '''\
        """Doc."""
        from repro.memory.cache import CacheConfig
        from repro.hardware.platform import Platform

        __all__ = []
        '''
    diags = lint(source, path=INIT, select=["export-drift"])
    # Own-package re-export must be listed; the cross-package
    # dependency import (Platform) is exempt.
    assert len(diags) == 1
    assert "CacheConfig" in diags[0].message


def test_field_units_required_in_hardware_dataclasses():
    bad = '''\
        """Doc."""
        from dataclasses import dataclass

        @dataclass
        class Spec:
            """A spec.

            Attributes:
                latency: how slow it is.
            """

            latency: float
        '''
    assert codes(lint(bad, path=HARDWARE,
                      select=["field-units"])) == {"API004"}
    good = bad.replace("how slow it is", "setup latency in seconds")
    assert lint(good, path=HARDWARE, select=["field-units"]) == []


def test_attribute_docstring_satisfies_field_units():
    source = '''\
        """Doc."""
        from dataclasses import dataclass

        @dataclass
        class Spec:
            """A spec."""

            mem_bandwidth: float
            """Peak bandwidth in bytes/s."""
        '''
    assert lint(source, path=HARDWARE, select=["field-units"]) == []


# ---- suppressions --------------------------------------------------------------


def test_line_suppression_by_name_and_code():
    base = '"""Doc."""\nimport numpy as np\n'
    line = "x = np.random.rand(3)"
    for marker in ("unseeded-numpy", "DET002", "all"):
        diags = lint(f"{base}{line}  # daoplint: disable={marker}\n",
                     select=["unseeded-numpy"])
        assert diags == [], marker


def test_file_suppression():
    diags = lint('"""Doc."""\n# daoplint: disable-file=unseeded-numpy\n'
                 'import numpy as np\nx = np.random.rand(3)\n'
                 'y = np.random.randn(2)\n', select=["unseeded-numpy"])
    assert diags == []


def test_suppression_of_other_rule_does_not_mask():
    diags = lint('"""Doc."""\nimport numpy as np\n'
                 'x = np.random.rand(3)  # daoplint: disable=wall-clock\n',
                 select=["unseeded-numpy"])
    assert codes(diags) == {"DET002"}


# ---- timeline integrity --------------------------------------------------------


def test_timeline_ops_mutations_flagged():
    source = '''\
        """Doc."""

        def tamper(timeline, op):
            """Doc."""
            timeline.ops.append(op)
            timeline.ops.extend([op])
            timeline.ops.sort()
            timeline.ops = []
            timeline.ops += [op]
            timeline.ops[0] = op
            del timeline.ops[0]
        '''
    diags = lint(source, select=["timeline-ops-mutation"])
    assert codes(diags) == {"TL001"}
    assert len(diags) == 7


def test_timeline_column_mutations_flagged():
    source = '''\
        """Doc."""

        def tamper(timeline):
            """Doc."""
            timeline.starts[0] = -1.0
            timeline.ends = []
            timeline.labels.append("x")
            del timeline.dep_flat[0]
        '''
    diags = lint(source, select=["timeline-ops-mutation"])
    assert codes(diags) == {"TL001"}
    assert len(diags) == 4
    assert lint('"""Doc."""\nlast = max(t.ends) + t.starts[0]\n',
                select=["timeline-ops-mutation"]) == []


def test_timeline_op_handle_writes_flagged():
    """An op handle's setters write its row of the record."""
    source = '''\
        """Doc."""

        def tamper(timeline, session):
            """Doc."""
            timeline.ops[0].start = -1.0
            session.timeline.ops[-1].end += 1.0
            del timeline.ops[0].label
        '''
    diags = lint(source, path=CORE, select=["timeline-ops-mutation"])
    assert codes(diags) == {"TL001"}
    assert len(diags) == 3
    assert "timeline.ops[...].start" in diags[0].message
    assert lint(source, path=HARDWARE,
                select=["timeline-ops-mutation"]) == []


def test_timeline_ops_tuple_target_flagged():
    diags = lint('"""Doc."""\n(a, t.ops) = (1, [])\n',
                 select=["timeline-ops-mutation"])
    assert codes(diags) == {"TL001"}


def test_timeline_ops_reads_allowed():
    source = '''\
        """Doc."""

        def render(timeline):
            """Doc."""
            for op in timeline.ops:
                last = timeline.ops[-1]
            return len(timeline.ops), sorted(timeline.ops)
        '''
    assert lint(source, select=["timeline-ops-mutation"]) == []


def test_timeline_ops_mutation_allowed_in_hardware():
    source = '''\
        """Doc."""

        class Timeline:
            """Doc."""

            def add(self, op):
                """Doc."""
                self.ops.append(op)
        '''
    assert lint(source, path=HARDWARE,
                select=["timeline-ops-mutation"]) == []


def test_unrelated_attribute_mutation_allowed():
    diags = lint('"""Doc."""\nqueue.items.append(3)\nqueue.items = []\n',
                 select=["timeline-ops-mutation"])
    assert diags == []


# ---- docs sync ----------------------------------------------------------------

CORE_INIT = "src/repro/core/__init__.py"
GOLDEN = "tests/test_golden_regression.py"


def test_undocumented_engine_flagged():
    source = '''\
        """Doc."""
        ENGINE_NAMES = ("official", "totally-new-engine")
        '''
    diags = lint(source, path=CORE_INIT, select=["engine-taxonomy-doc"])
    assert codes(diags) == {"DOC001"}
    assert "totally-new-engine" in diags[0].message
    assert len(diags) == 1  # "official" has a taxonomy row


def test_undocumented_build_engine_branch_flagged():
    source = '''\
        """Doc."""
        ENGINE_NAMES = ("official",)

        def build_engine(name):
            """Doc."""
            if name == "sneaky-branch-engine":
                return object()
        '''
    diags = lint(source, path=CORE_INIT, select=["engine-taxonomy-doc"])
    assert codes(diags) == {"DOC001"}
    assert "sneaky-branch-engine" in diags[0].message


def test_documented_engines_clean():
    from repro.lint import lint_paths

    report = lint_paths(["src/repro/core/__init__.py"],
                        select=["engine-taxonomy-doc"])
    assert report.diagnostics == []


def test_taxonomy_rule_scoped_to_core_init():
    source = '"""Doc."""\nENGINE_NAMES = ("bogus",)\n'
    assert lint(source, path=CORE, select=["engine-taxonomy-doc"]) == []


def test_float_equality_flagged_in_golden_tests():
    source = '''\
        """Doc."""

        def test_time():
            """Doc."""
            assert summary.total_time_s == 1.2345
        '''
    diags = lint(source, path=GOLDEN, select=["float-equality"])
    assert codes(diags) == {"NUM001"}


def test_float_inequality_and_negative_literal_flagged():
    diags = lint('"""Doc."""\nok = x != -0.5\n', path=GOLDEN,
                 select=["float-equality"])
    assert codes(diags) == {"NUM001"}


def test_approx_and_int_comparisons_clean():
    source = '''\
        """Doc."""
        import pytest

        def test_time():
            """Doc."""
            assert summary.total_time_s == pytest.approx(1.2345)
            assert summary.expert_uploads == 3
            assert 0.5 < summary.ratio
        '''
    assert lint(source, path=GOLDEN, select=["float-equality"]) == []


def test_float_equality_scoped_to_golden_tests():
    assert lint('"""Doc."""\nok = x == 1.5\n', path=CORE,
                select=["float-equality"]) == []


def test_real_golden_test_file_is_tolerant():
    from repro.lint import lint_paths

    report = lint_paths(["tests/test_golden_regression.py"],
                        select=["float-equality"])
    assert report.diagnostics == []


# ---- ENG005: expert stage API -----------------------------------------------


def test_direct_expert_call_flagged_in_core_and_audit():
    src = '''\
        """Doc."""
        def run(block, x):
            return block.experts[0](x)
        '''
    for path in (CORE, "src/repro/audit/sample.py"):
        diags = lint(src, path=path, select=["expert-stage-api"])
        assert codes(diags) == {"ENG005"}


def test_swiglu_import_flagged_in_core():
    diags = lint('"""Doc."""\nfrom repro.model.experts import SwiGLUExpert\n',
                 select=["expert-stage-api"])
    assert codes(diags) == {"ENG005"}
    diags = lint('"""Doc."""\nimport repro.model.experts\n',
                 select=["expert-stage-api"])
    assert codes(diags) == {"ENG005"}


def test_experts_subscript_reads_allowed():
    """Reading routing decisions is legal; only *calling* is flagged."""
    diags = lint(
        '''\
        """Doc."""
        def inspect(routing, block):
            first = routing.experts[0]
            n = len(block.experts)
            return first, n
        ''',
        select=["expert-stage-api"],
    )
    assert diags == []


def test_stage_api_calls_allowed():
    diags = lint(
        '''\
        """Doc."""
        def run(block, h_att, token_idx):
            logits = block.gate_logits(h_att)
            routing = block.route_from_logits(logits)
            return block.expert_forward(0, h_att, token_idx=token_idx)
        ''',
        select=["expert-stage-api"],
    )
    assert diags == []


def test_expert_stage_api_scoped_to_core_and_audit():
    """The model layer itself (and tests) may call experts directly."""
    src = '''\
        """Doc."""
        from repro.model.experts import SwiGLUExpert
        def run(block, x):
            return block.experts[0](x)
        '''
    for path in ("src/repro/model/sample.py", "tests/sample.py"):
        assert lint(src, path=path, select=["expert-stage-api"]) == []


# ---- ENG006: checkpoint hook pair -------------------------------------------


def test_one_sided_checkpoint_hooks_flagged():
    for present, missing in (("_policy_state_dict", "_restore_policy"),
                             ("_restore_policy", "_policy_state_dict")):
        src = f'''\
            """Doc."""

            class Half:
                """Doc."""

                def {present}(self, *args):
                    """Doc."""
                    return None
            '''
        diags = lint(src, path=BASELINE,
                     select=["checkpoint-hook-pair"])
        assert codes(diags) == {"ENG006"}
        assert present in diags[0].message
        assert missing in diags[0].message


def test_paired_or_absent_checkpoint_hooks_allowed():
    paired = '''\
        """Doc."""

        class Whole:
            """Doc."""

            def _policy_state_dict(self, state):
                """Doc."""
                return None

            def _restore_policy(self, state, payload):
                """Doc."""
                return None
        '''
    neither = '''\
        """Doc."""

        class Stateless:
            """Doc."""

            def _begin_sequence(self, ctx):
                """Doc."""
                return None
        '''
    for src in (paired, neither):
        assert lint(src, path=BASELINE,
                    select=["checkpoint-hook-pair"]) == []


def test_checkpoint_hook_pair_scoped_to_core():
    """Non-engine layers may use the names freely (e.g. adapters)."""
    src = '''\
        """Doc."""

        class Adapter:
            """Doc."""

            def _policy_state_dict(self):
                """Doc."""
                return {}
        '''
    assert lint(src, path="src/repro/serving/sample.py",
                select=["checkpoint-hook-pair"]) == []


def test_checkpoint_resume_are_substrate_methods():
    """Baselines may not override the checkpoint/restore substrate."""
    src = '''\
        """Doc."""
        from repro.core.engine import BaseEngine

        class Sneaky(BaseEngine):
            """Doc."""

            def checkpoint_sequence(self, state, include_clock=True):
                """Doc."""
                return {}

            def restore_sequence(self, payload, clock=None):
                """Doc."""
                return None
        '''
    diags = lint(src, path=BASELINE, select=["substrate-override"])
    assert codes(diags) == {"ENG002"}
    assert len(diags) == 2
