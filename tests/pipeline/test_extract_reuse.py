"""Warm-start reuse of the greedy extraction table.

A complete cold extraction persists its solved cost table with the e-graph
artifact; a warm start whose graph is provably the saved one (an exact
digest hit or an empty delta) adopts the table instead of re-running the
fixpoint.  Reuse must be indistinguishable from solving:

* **exact by construction** — for every registry design, the reused
  ``Extractor.selection()``, extracted expressions and costs equal a fresh
  fixpoint on the same loaded graph, for exact hits and empty deltas;
* **never stale** — a non-empty delta, another objective, a truncated cold
  extraction, a case split after the warm start, a changed graph and a v1
  artifact all solve afresh.
"""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.designs import DESIGNS, get_design
from repro.egraph import Extractor
from repro.egraph.extract import objective_tag
from repro.egraph.serialize import load_egraph, read_header
from repro.ir import gt, var
from repro.pipeline import (
    Budget,
    CaseSplit,
    Extract,
    Ingest,
    Job,
    Pipeline,
    SaveEGraph,
    Saturate,
    WarmStart,
    execute_job,
)
from repro.rewrites import compose_rules
from repro.synth.cost import DelayAreaCost, default_key, lexicographic_key, weighted_key
from repro.synth.treecost import model_cost
from test_budget import FakeClock

ITERS = 3
NODE_LIMIT = 8_000


def _saturate():
    return Saturate(compose_rules(), iter_limit=ITERS, node_limit=NODE_LIMIT)


def _cold(design, artifact):
    return Pipeline(
        [Ingest(source=design.verilog), _saturate(), Extract(), SaveEGraph(artifact)]
    ).run(input_ranges=design.input_ranges)


def _warm(roots, ranges, artifact, *, extract=None, between=()):
    extract = extract if extract is not None else Extract()
    ctx = Pipeline(
        [
            Ingest(roots=roots, seed_egraph=False),
            WarmStart(artifact),
            *between,
            _saturate(),
            extract,
        ]
    ).run(input_ranges=ranges)
    return ctx, extract._extractor


def _probe(expr):
    """A proper subexpression of ``expr`` (already in any graph ``expr`` was
    interned into), or ``expr`` itself when it is a leaf."""
    while expr.children:
        expr = expr.children[0]
        if expr.children:
            return expr
    return expr


def _assert_matches_fresh(ctx, reused):
    """The reused extraction equals a fresh fixpoint on the same graph."""
    fresh = Extractor(ctx.egraph, DelayAreaCost(default_key), strip_assumes=False)
    assert fresh.steps > 0 and not fresh.reused
    assert reused.reused and reused.steps == 0
    assert reused.selection() == fresh.selection()
    for name, root in ctx.root_ids.items():
        assert reused.cost_of(root) == fresh.cost_of(root)
        expr = fresh.expr_of(root)
        assert reused.expr_of(root) == expr
        assert ctx.extracted[name] == expr
        assert ctx.optimized_costs[name] == model_cost(expr, ctx.input_ranges)


# ------------------------------------------------------------ exact reuse
@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_exact_hit_reuses_the_table_exactly(name, tmp_path):
    design = get_design(name)
    artifact = tmp_path / f"{name}.egraph"
    cold = _cold(design, artifact)
    roots = dict(cold.roots)
    assert cold.extract_reports[-1].greedy_table == "solved"
    assert read_header(artifact).objective == objective_tag(default_key)

    ctx, reused = _warm(roots, design.input_ranges, artifact)
    status = ctx.artifacts["warm_start"]
    assert status.startswith("hit:") and not status.endswith(":delta"), status
    report = ctx.extract_reports[-1]
    assert (report.greedy_table, report.steps) == ("reused", 0)
    _assert_matches_fresh(ctx, reused)
    for output in cold.roots:
        assert ctx.optimized_costs[output] == cold.optimized_costs[output]


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_empty_delta_reuses_the_table_exactly(name, tmp_path):
    design = get_design(name)
    artifact = tmp_path / f"{name}.egraph"
    cold = _cold(design, artifact)
    first = sorted(cold.roots)[0]
    # A new output over an already-interned subexpression: the design
    # digest changes, the graph does not.
    edited = {**cold.roots, "probe": _probe(cold.roots[first])}

    ctx, reused = _warm(edited, design.input_ranges, artifact)
    status = ctx.artifacts["warm_start"]
    assert status.startswith("hit:") and status.endswith(":delta"), status
    assert ctx.artifacts.get("warm_saturated")
    assert ctx.extract_reports[-1].greedy_table == "reused"
    _assert_matches_fresh(ctx, reused)


# --------------------------------------------------------- negative cases
@pytest.fixture()
def lzc(tmp_path):
    design = get_design("lzc_example")
    artifact = tmp_path / "lzc.egraph"
    cold = _cold(design, artifact)
    return design, dict(cold.roots), artifact


def test_non_empty_delta_solves_afresh(lzc):
    design, roots, artifact = lzc
    edited = {**roots, "out2": var("x", 8) & var("y", 8)}
    ctx, extractor = _warm(edited, design.input_ranges, artifact)
    assert ctx.artifacts["warm_start"].endswith(":delta")
    assert ctx.reports[-1].iterations, "a delta with new nodes re-saturates"
    assert not extractor.reused and extractor.steps > 0
    assert ctx.extract_reports[-1].greedy_table == "solved"


@pytest.mark.parametrize(
    "key", [weighted_key(1.0, 0.01), lexicographic_key, lambda d, a: (a, d)]
)
def test_another_objective_solves_afresh(lzc, key):
    design, roots, artifact = lzc
    ctx, extractor = _warm(
        roots, design.input_ranges, artifact, extract=Extract(key=key)
    )
    assert ctx.artifacts["warm_start"].startswith("hit:")
    assert not extractor.reused and extractor.steps > 0
    assert ctx.extract_reports[-1].greedy_table == "solved"


def test_only_module_level_keys_are_tagged():
    assert objective_tag(default_key) == "repro.synth.cost.default_key"
    assert objective_tag(lexicographic_key) == "repro.synth.cost.lexicographic_key"
    assert objective_tag(weighted_key(1.0, 0.01)) is None
    assert objective_tag(lambda d, a: (d, a)) is None
    assert objective_tag(None) is None


def test_truncated_cold_extraction_saves_no_table(tmp_path):
    roots = {"out": var("x0", 4) + var("x1", 4) + var("x2", 4) + var("x3", 4)}
    artifact = tmp_path / "cut.egraph"
    cold = Pipeline(
        [Ingest(roots=roots), _saturate(), Extract(), SaveEGraph(artifact)]
    ).run(budget=Budget(time_s=0.05), clock=FakeClock(tick=0.001))
    assert cold.extract_reports[-1].status == "deadline"
    assert "extract_table" not in cold.artifacts
    assert read_header(artifact).objective == ""
    assert load_egraph(artifact).extract_table is None

    ctx, extractor = _warm(roots, {}, artifact)
    assert ctx.artifacts["warm_start"].startswith("hit:")
    assert not extractor.reused
    assert ctx.extract_reports[-1].greedy_table == "solved"


def test_case_split_after_the_warm_start_drops_the_table(lzc):
    design, roots, artifact = lzc
    split = CaseSplit([gt(var("x", 8), 100)])
    ctx, extractor = _warm(roots, design.input_ranges, artifact, between=[split])
    assert ctx.artifacts["warm_start"].startswith("hit:")
    assert not extractor.reused
    assert ctx.extract_reports[-1].greedy_table == "solved"


def test_a_changed_graph_does_not_fit_the_table(lzc):
    design, roots, artifact = lzc
    saved = load_egraph(artifact)
    table, egraph = saved.extract_table, saved.egraph
    assert table is not None and table.fits(egraph.core, table.objective)
    cost = DelayAreaCost(default_key)
    assert Extractor(egraph, cost, table=table).reused
    # Any insert moves the fingerprint.
    egraph.add_expr(var("fresh", 3))
    egraph.rebuild()
    assert not table.fits(egraph.core, table.objective)
    assert not Extractor(egraph, DelayAreaCost(default_key), table=table).reused


def test_a_v1_artifact_is_a_cold_start(lzc):
    design, roots, artifact = lzc
    header, _, payload = artifact.read_bytes().partition(b"\n")
    raw = json.loads(header)
    raw["format"] = 1
    del raw["objective"]
    artifact.write_bytes(json.dumps(raw).encode() + b"\n" + payload)
    ctx, extractor = _warm(roots, design.input_ranges, artifact)
    assert ctx.artifacts["warm_start"] == "cold:version"
    assert not extractor.reused
    assert ctx.extract_reports[-1].greedy_table == "solved"


# ------------------------------------------------------------ run records
def test_records_say_whether_the_table_was_solved_or_reused(tmp_path):
    artifact = str(tmp_path / "fam.egraph")
    knobs = dict(design="lzc_example", iter_limit=ITERS, node_limit=NODE_LIMIT)
    cold = execute_job(Job(name="c", save_egraph=artifact, **knobs))
    warm = execute_job(Job(name="w", warm_start=artifact, save_egraph=artifact, **knobs))
    again = execute_job(Job(name="a", warm_start=artifact, **knobs))
    assert (cold.greedy_table, warm.greedy_table) == ("solved", "reused")
    # A reused table is re-saved with the artifact it came from.
    assert again.greedy_table == "reused"
    assert (warm.extract_status, again.extract_status) == ("complete", "complete")
    assert (warm.optimized_delay, warm.optimized_area) == (
        cold.optimized_delay,
        cold.optimized_area,
    )


def test_ilp_greedy_seed_reuses_the_table(tmp_path):
    artifact = str(tmp_path / "ilp.egraph")
    knobs = dict(
        design="lzc_example", iter_limit=ITERS, node_limit=NODE_LIMIT,
        extract_objective="ilp",
    )
    cold = execute_job(Job(name="c", save_egraph=artifact, **knobs))
    warm = execute_job(Job(name="w", warm_start=artifact, **knobs))
    assert (cold.greedy_table, warm.greedy_table) == ("solved", "reused")
    assert warm.extract_status == cold.extract_status
    assert (warm.dag_delay, warm.dag_area) == (cold.dag_delay, cold.dag_area)


def test_dropped_graph_is_freed_without_the_cyclic_collector():
    design = get_design("lzc_example")
    stages = [Ingest(source=design.verilog), _saturate(), Extract()]
    enabled = gc.isenabled()
    gc.disable()
    try:
        ctx = Pipeline(stages).run(input_ranges=design.input_ranges)
        graph = weakref.ref(ctx.egraph)
        del ctx, stages
        assert graph() is None
    finally:
        if enabled:
            gc.enable()
