"""Architectural linter: synthetic violations plus the real repo staying clean."""

from __future__ import annotations

import pytest

from repro.lint.arch import (
    ENTRY_POINTS,
    LAYERS,
    MODULE_UNITS,
    check_arch,
    check_clocks,
    check_globals,
    check_layers,
    check_stdlib,
    check_view_scans,
    unit_of,
)
from repro.lint.model import SourceTree, load_source_tree


def tree(**sources):
    return SourceTree.from_sources(
        {name.replace("_", "."): text for name, text in sources.items()}
    )


def rule_ids(findings):
    return {f.rule_id for f in findings}


# ---------------------------------------------------------------- layer map
class TestLayers:
    def test_upward_eager_import_is_flagged(self):
        t = tree(
            repro_ir="import repro.pipeline\n",
            repro_pipeline="",
        )
        findings = check_layers(t)
        assert rule_ids(findings) == {"AR-LAYER"}
        [finding] = findings
        assert not finding.detail["lazy"]

    def test_downward_import_is_clean(self):
        t = tree(
            repro_pipeline="import repro.ir\n",
            repro_ir="",
        )
        assert check_layers(t) == []

    def test_upward_lazy_import_is_flagged_as_waivable(self):
        t = tree(
            repro_ir="def f():\n    import repro.pipeline\n",
            repro_pipeline="",
        )
        [finding] = check_layers(t)
        assert finding.rule_id == "AR-LAYER" and finding.detail["lazy"]

    def test_module_level_cycle_is_flagged_even_within_a_unit(self):
        t = tree(
            **{
                "repro.ir.a": "import repro.ir.b\n",
                "repro.ir.b": "import repro.ir.a\n",
            }
        )
        findings = check_layers(t)
        assert any(f.anchor.startswith("cycle:") for f in findings)

    def test_unmapped_module_is_flagged(self):
        t = tree(
            **{
                "repro.mystery": "import repro.ir\n",
                "repro.ir": "",
            }
        )
        assert any(f.anchor.endswith(":unmapped") for f in check_layers(t))

    def test_budget_carveout_sits_below_the_engine(self):
        assert unit_of("repro.pipeline.budget") == "budget"
        assert unit_of("repro.pipeline.pipeline") == "pipeline"
        assert LAYERS.index("budget") < LAYERS.index("egraph")

    def test_every_mapped_unit_is_a_layer(self):
        assert set(MODULE_UNITS.values()) <= set(LAYERS)


# ------------------------------------------------------------- stdlib policy
class TestStdlibPolicy:
    def test_budget_module_may_not_import_the_package(self):
        t = tree(
            **{
                "repro.pipeline.budget": "import repro.ir\n",
                "repro.ir": "",
            }
        )
        assert rule_ids(check_stdlib(t)) == {"AR-STDLIB"}

    def test_solve_unit_may_not_import_third_party(self):
        t = tree(**{"repro.solve.ilp": "import numpy\n"})
        assert rule_ids(check_stdlib(t)) == {"AR-STDLIB"}

    def test_solve_unit_may_import_stdlib_and_package(self):
        t = tree(
            **{
                "repro.solve.ilp": "import itertools\nimport repro.ir\n",
                "repro.ir": "",
            }
        )
        assert check_stdlib(t) == []


# ------------------------------------------------------------------- clocks
class TestClocks:
    def test_bare_clock_call_is_flagged(self):
        t = tree(
            repro_pipeline="import time\n\ndef f():\n    return time.monotonic()\n"
        )
        [finding] = check_clocks(t)
        assert finding.rule_id == "AR-CLOCK"
        assert finding.anchor.endswith(":f")

    def test_from_import_alias_is_flagged(self):
        t = tree(
            repro_pipeline="from time import perf_counter\n\n"
            "def f():\n    return perf_counter()\n"
        )
        assert rule_ids(check_clocks(t)) == {"AR-CLOCK"}

    def test_injectable_default_reference_is_sanctioned(self):
        t = tree(
            repro_pipeline="import time\n\n"
            "def f(clock=None):\n"
            "    timer = clock if clock is not None else time.monotonic\n"
            "    return timer()\n"
        )
        assert check_clocks(t) == []

    def test_real_clock_reference_in_a_stage_run_is_flagged(self):
        """A stage times itself on ``ctx.governor.clock``: even the
        injectable-default idiom is a finding inside ``run(self, ctx)``."""
        t = tree(
            repro_pipeline="import time\n\n"
            "class Stage:\n"
            "    def run(self, ctx):\n"
            "        governor = ctx.governor\n"
            "        clock = governor.clock if governor else time.monotonic\n"
            "        return clock()\n"
        )
        [finding] = check_clocks(t)
        assert finding.rule_id == "AR-CLOCK"
        assert finding.anchor.endswith(":Stage.run")
        assert "time.monotonic referenced" in finding.message

    def test_aliased_clock_in_a_stage_run_is_flagged_once(self):
        t = tree(
            repro_pipeline="from time import perf_counter\n\n"
            "class Stage:\n"
            "    def run(self, ctx):\n"
            "        return perf_counter()\n"
        )
        [finding] = check_clocks(t)
        assert "bare perf_counter() call" in finding.message

    def test_governor_clock_in_a_stage_run_is_clean(self):
        t = tree(
            repro_pipeline="import time\n\n"
            "class Stage:\n"
            "    def run(self, ctx):\n"
            "        return ctx.governor.clock()\n\n"
            "def helper(clock=None):\n"
            "    return clock if clock is not None else time.monotonic\n"
        )
        assert check_clocks(t) == []

    def test_budget_unit_owns_the_real_clock(self):
        t = tree(
            **{
                "repro.pipeline.budget":
                    "import time\n\ndef now():\n    return time.monotonic()\n"
            }
        )
        assert check_clocks(t) == []


# --------------------------------------------------------------- view scans
class TestViewScans:
    def test_subscripted_view_nodes_in_a_rule_is_flagged(self):
        t = tree(
            repro_rewrites="def search(egraph, c):\n"
            "    for node in egraph[c].nodes:\n"
            "        yield node\n"
        )
        [finding] = check_view_scans(t)
        assert finding.rule_id == "AR-VIEWSCAN"
        assert finding.anchor == "repro.rewrites:search"
        assert finding.line == 2

    def test_name_bound_to_a_view_in_an_analysis_is_flagged(self):
        t = tree(
            repro_analysis="def scan(egraph, c):\n"
            "    eclass = egraph[c]\n"
            "    return [n for n in eclass.nodes if n.op]\n"
        )
        [finding] = check_view_scans(t)
        assert finding.anchor == "repro.analysis:scan"

    def test_class_loop_variable_is_flagged(self):
        t = tree(
            repro_rewrites="def f(egraph):\n"
            "    for eclass in egraph.classes():\n"
            "        print(eclass.nodes)\n"
        )
        assert rule_ids(check_view_scans(t)) == {"AR-VIEWSCAN"}

    def test_member_probe_is_clean(self):
        t = tree(
            repro_rewrites="def search(egraph, c, op):\n"
            "    for node in egraph.members(c, op):\n"
            "        yield node\n"
        )
        assert check_view_scans(t) == []

    def test_other_nodes_attributes_are_clean(self):
        t = tree(
            repro_rewrites="def f(plan, snapshot):\n"
            "    return plan.nodes, [c.nodes for c in snapshot.classes]\n"
        )
        assert check_view_scans(t) == []

    def test_views_outside_the_hot_path_units_are_clean(self):
        t = tree(
            **{
                "repro.egraph.dot": "def f(egraph, c):\n    return egraph[c].nodes\n",
                "repro.solve.ilp": "def g(egraph, c):\n    return egraph[c].nodes\n",
            }
        )
        assert check_view_scans(t) == []


# ------------------------------------------------------------------ globals
class TestGlobals:
    def test_mutable_module_global_is_flagged(self):
        t = tree(repro_ir="CACHE = {}\n")
        [finding] = check_globals(t)
        assert finding.rule_id == "AR-GLOBAL"
        assert finding.anchor == "repro.ir:CACHE"

    def test_allowlisted_global_is_clean(self):
        t = tree(**{"repro.ir.ops": "OPS_BY_NAME = {}\n"})
        assert check_globals(t) == []

    def test_immutable_global_is_clean(self):
        t = tree(repro_ir="NAMES = ('a', 'b')\nLIMIT = 3\n")
        assert check_globals(t) == []


# ------------------------------------------------------------- the real repo
class TestRealRepo:
    @pytest.fixture(scope="class")
    def repo_tree(self):
        return load_source_tree()

    def test_repo_architecture_is_clean_modulo_waivers(self, repo_tree):
        from repro.lint import run_lint

        report = run_lint(only=("arch",), tree=repo_tree)
        assert report.findings == [], [f.fid for f in report.findings]

    def test_entry_points_include_the_linter_itself(self):
        assert "repro.lint" in ENTRY_POINTS
