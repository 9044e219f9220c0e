"""Concurrency checker: synthetic worker races plus the real repo staying clean."""

from __future__ import annotations

import pytest

from repro.lint.concurrency import check_concurrency
from repro.lint.model import SourceTree, load_source_tree

ENTRIES = {"repro.pipeline.session": ("execute_job",)}


def rule_ids(findings):
    return {f.rule_id for f in findings}


class TestSyntheticRaces:
    def test_direct_write_in_worker_is_flagged(self):
        t = SourceTree.from_sources(
            {
                "repro.pipeline.session":
                    "CACHE = {}\n\n"
                    "def execute_job(job):\n"
                    "    CACHE[job] = 1\n",
            }
        )
        [finding] = check_concurrency(t, ENTRIES)
        assert finding.rule_id == "CC-SHARED"
        assert finding.detail["target"] == "repro.pipeline.session.CACHE"

    def test_write_through_callee_is_flagged(self):
        # The race sits two hops down the call graph, in another module.
        t = SourceTree.from_sources(
            {
                "repro.pipeline.session":
                    "from repro.synth.cost import price\n\n"
                    "def execute_job(job):\n"
                    "    return price(job)\n",
                "repro.synth.cost":
                    "MEMO = {}\n\n"
                    "def price(job):\n"
                    "    MEMO[job] = 1\n"
                    "    return MEMO[job]\n",
            }
        )
        [finding] = check_concurrency(t, ENTRIES)
        assert finding.detail["target"] == "repro.synth.cost.MEMO"

    def test_mutator_method_call_is_flagged(self):
        t = SourceTree.from_sources(
            {
                "repro.pipeline.session":
                    "SEEN = set()\n\n"
                    "def execute_job(job):\n"
                    "    SEEN.add(job)\n",
            }
        )
        assert rule_ids(check_concurrency(t, ENTRIES)) == {"CC-SHARED"}

    def test_global_statement_rebind_is_flagged(self):
        t = SourceTree.from_sources(
            {
                "repro.pipeline.session":
                    "COUNT = 0\n\n"
                    "def execute_job(job):\n"
                    "    global COUNT\n"
                    "    COUNT = COUNT + 1\n",
            }
        )
        assert rule_ids(check_concurrency(t, ENTRIES)) == {"CC-SHARED"}

    def test_local_mutation_is_clean(self):
        t = SourceTree.from_sources(
            {
                "repro.pipeline.session":
                    "def execute_job(job):\n"
                    "    memo = {}\n"
                    "    memo[job] = 1\n"
                    "    return memo\n",
            }
        )
        assert check_concurrency(t, ENTRIES) == []

    def test_write_outside_worker_reachability_is_clean(self):
        # A registry decorated at import time mutates module state, but no
        # worker entry point ever reaches it.
        t = SourceTree.from_sources(
            {
                "repro.pipeline.session":
                    "def execute_job(job):\n"
                    "    return job\n",
                "repro.designs.registry":
                    "TABLE = {}\n\n"
                    "def register(design):\n"
                    "    TABLE[design] = design\n",
            }
        )
        assert check_concurrency(t, ENTRIES) == []

    def test_audited_write_is_clean(self):
        t = SourceTree.from_sources(
            {
                "repro.pipeline.session":
                    "from repro.rewrites.rulesets import compose\n\n"
                    "def execute_job(job):\n"
                    "    return compose(job)\n",
                "repro.rewrites.rulesets":
                    "_COMPOSE_CACHE = {}\n\n"
                    "def compose(key):\n"
                    "    _COMPOSE_CACHE[key] = key\n"
                    "    return _COMPOSE_CACHE[key]\n",
            }
        )
        assert check_concurrency(t, ENTRIES) == []


class TestInterpreterSetters:
    def test_recursion_limit_bump_in_worker_is_flagged_once(self):
        # The save/restore pair around a deep recursion: one finding.
        t = SourceTree.from_sources(
            {
                "repro.pipeline.session":
                    "import sys\n\n"
                    "def execute_job(job):\n"
                    "    old = sys.getrecursionlimit()\n"
                    "    sys.setrecursionlimit(10_000)\n"
                    "    try:\n"
                    "        return job\n"
                    "    finally:\n"
                    "        sys.setrecursionlimit(old)\n",
            }
        )
        [finding] = check_concurrency(t, ENTRIES)
        assert finding.rule_id == "CC-SETTER"
        assert finding.detail["target"] == "sys.setrecursionlimit"
        assert finding.line == 5

    def test_setter_through_callee_and_from_import_is_flagged(self):
        t = SourceTree.from_sources(
            {
                "repro.pipeline.session":
                    "from repro.solve.ilp import solve\n\n"
                    "def execute_job(job):\n"
                    "    return solve(job)\n",
                "repro.solve.ilp":
                    "from sys import setswitchinterval\n\n"
                    "def solve(job):\n"
                    "    setswitchinterval(0.5)\n",
            }
        )
        [finding] = check_concurrency(t, ENTRIES)
        assert finding.rule_id == "CC-SETTER"
        assert finding.detail["target"] == "sys.setswitchinterval"
        assert finding.module == "repro.solve.ilp"

    @pytest.mark.parametrize(
        "call, target",
        [
            ("_gc.disable()", "gc.disable"),
            ("_gc.enable()", "gc.enable"),
            ("_gc.freeze()", "gc.freeze"),
            ("_gc.set_threshold(1000)", "gc.set_threshold"),
            ("os.chdir('/')", "os.chdir"),
        ],
    )
    def test_gc_switches_and_chdir_are_flagged(self, call, target):
        t = SourceTree.from_sources(
            {
                "repro.pipeline.session":
                    "import gc as _gc\nimport os\n\n"
                    "def execute_job(job):\n"
                    f"    {call}\n",
            }
        )
        [finding] = check_concurrency(t, ENTRIES)
        assert finding.rule_id == "CC-SETTER"
        assert finding.detail["target"] == target

    def test_collecting_and_reading_settings_are_clean(self):
        # The daemon's drain loop runs a full collection between rounds:
        # that is work, not a setting.
        t = SourceTree.from_sources(
            {
                "repro.pipeline.session":
                    "import gc\nimport os\nimport sys\n\n"
                    "def execute_job(job):\n"
                    "    gc.collect()\n"
                    "    os.getcwd()\n"
                    "    return sys.getrecursionlimit(), gc.get_threshold()\n",
            }
        )
        assert check_concurrency(t, ENTRIES) == []

    def test_setter_outside_worker_reachability_is_clean(self):
        t = SourceTree.from_sources(
            {
                "repro.pipeline.session":
                    "def execute_job(job):\n"
                    "    return job\n",
                "repro.cli":
                    "import sys\n\n"
                    "def main():\n"
                    "    sys.setrecursionlimit(10_000)\n",
            }
        )
        assert check_concurrency(t, ENTRIES) == []


class TestRealRepo:
    @pytest.fixture(scope="class")
    def repo_tree(self):
        return load_source_tree()

    def test_worker_reachable_writes_are_all_audited(self, repo_tree):
        findings = check_concurrency(repo_tree)
        assert findings == [], [f.fid for f in findings]
