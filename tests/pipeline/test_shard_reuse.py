"""Each distinct cone optimized once: shard reuse and verdict reuse.

``Shard`` runs one pipeline per distinct :meth:`ShardTask.key` and renames
that result onto every other shard with the same key; ``Verify`` reuses a
verdict for a pair that renames one it already checked.  Both rest on one
assumption: the pipeline reads input names only through sorts and
first-occurrence walks, so an order-preserving renaming of the inputs
renames the result and changes nothing else.  The tests here check that
assumption on every registry design, check that a reused shard equals the
same cone run on its own (inline and over a process pool, unbudgeted and
under a countable budget), and pin what the ledger says about reuse.
"""

from __future__ import annotations

import pytest

from repro import DatapathOptimizer, OptimizerConfig
from repro.analysis.sharding import cone_shard
from repro.designs import DESIGNS, get_design
from repro.designs.registry import design_roots
from repro.ir.expr import gt, var
from repro.ir.rename import rename_vars
from repro.pipeline import (
    Budget,
    Ingest,
    MergeShards,
    Pipeline,
    Schedule,
    Shard,
)
from repro.pipeline.shard import ShardTask
from repro.verify import check_equivalent
from repro.verify.equiv import DEFAULT_BDD_NODE_LIMIT


def _prefixed(design: str, prefix: str) -> tuple[dict, dict, dict]:
    """The design's roots and ranges with every input renamed
    ``prefix + name`` (which keeps the names' sorted order), and the map."""
    roots = design_roots(design)
    names = {
        node.var_name for root in roots.values() for node in root.walk() if node.is_var
    }
    mapping = {name: prefix + name for name in sorted(names)}
    renamed = dict(zip(roots, rename_vars(roots.values(), mapping), strict=True))
    ranges = {mapping[n]: iset for n, iset in DESIGNS[design].input_ranges.items()}
    return renamed, ranges, mapping


def _optimize(roots: dict, ranges: dict, **knobs):
    config = OptimizerConfig(verify=True, **knobs)
    return DatapathOptimizer(ranges, config).optimize_exprs(roots)


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_optimize_is_invariant_under_an_order_preserving_renaming(design):
    """The exactness assumption itself, on the monolithic flow: prefixing
    every input renames the optimized expressions and the counterexamples,
    and leaves costs, stop reasons and verdicts as they were."""
    spec = DESIGNS[design]
    knobs = dict(iter_limit=4, node_limit=spec.node_limit)
    plain = _optimize(design_roots(design), spec.input_ranges, **knobs)
    roots, ranges, mapping = _prefixed(design, "r_")
    renamed = _optimize(roots, ranges, **knobs)
    assert set(renamed.outputs) == set(plain.outputs)
    for name, result in plain.outputs.items():
        other = renamed.outputs[name]
        assert other.optimized == rename_vars([result.optimized], mapping)[0]
        assert other.optimized_cost == result.optimized_cost
        assert other.report.stop_reason == result.report.stop_reason
        theirs, mine = result.equivalence, other.equivalence
        assert (mine.equivalent, mine.method, mine.trials, mine.bdd_nodes) == (
            theirs.equivalent,
            theirs.method,
            theirs.trials,
            theirs.bdd_nodes,
        )
        assert mine.counterexample == (
            None
            if theirs.counterexample is None
            else {mapping[k]: v for k, v in theirs.counterexample.items()}
        )


def _two_lanes() -> tuple[dict, dict]:
    """Two renamed copies of ``float_to_unorm``: lanes ``a_*`` and ``b_*``."""
    lanes = {}
    ranges = {}
    for lane in ("a", "b"):
        roots, lane_ranges, _ = _prefixed("float_to_unorm", f"{lane}_")
        lanes[f"out_{lane}"] = roots["out"]
        ranges.update(lane_ranges)
    return lanes, ranges


@pytest.mark.parametrize("parallel", [False, True], ids=["inline", "process"])
def test_reused_lane_equals_that_lane_optimized_alone(parallel):
    lanes, ranges = _two_lanes()
    knobs = dict(iter_limit=3, auto_shard_nodes=1, shard_parallel=parallel)
    both = _optimize(lanes, ranges, **knobs)
    ctx = both.context
    assert [r.name for r in ctx.shard_results] == ["out_a", "out_b"]
    assert ctx.artifacts["shard_pool"] == ("process" if parallel else "inline")
    stages = ctx.governor.ledger
    assert "reused_from" not in stages["shard:out_a"]
    assert stages["shard:out_b"]["reused_from"] == "out_a"
    assert stages["shard:out_b"]["spent"]["iters"] == 0
    assert stages["verify"]["reused_from"] == {"out_b": "out_a"}

    alone = _optimize({"out_b": lanes["out_b"]}, ranges, **knobs).outputs["out_b"]
    reused = both.outputs["out_b"]
    assert reused.optimized == alone.optimized
    assert reused.optimized_cost == alone.optimized_cost
    assert reused.report.stop_reason == alone.report.stop_reason
    assert repr(reused.equivalence) == repr(alone.equivalence)
    assert reused.equivalence.trials == alone.equivalence.trials


@pytest.mark.parametrize(
    "budget", [None, Budget(iters=4)], ids=["unbudgeted", "iteration-pool"]
)
def test_reuse_matches_running_every_shard(budget):
    """A stitched schedule ships every shard's e-graph, so every shard runs;
    its per-shard results are what the reusing fan-out must rename to —
    under a countable pool too, whose draws must not change with reuse."""
    design = get_design("stress_wide")
    knobs = dict(iter_limit=3, node_limit=8_000, budget_policy="fair")
    runs = {}
    for stitch in (False, True):
        ctx = Pipeline([Ingest(source=design.verilog)]).run(
            input_ranges=design.input_ranges
        )
        runs[stitch] = Pipeline(
            [Shard(Schedule(stitch=stitch, **knobs)), MergeShards()]
        ).run(ctx=ctx, budget=budget, budget_policy="fair")
    reusing, every = runs[False], runs[True]
    assert all(r.reused_from == "" for r in every.shard_results)
    assert sum(bool(r.reused_from) for r in reusing.shard_results) >= 4
    assert reusing.extracted == every.extracted
    assert reusing.optimized_costs == every.optimized_costs
    for mine, theirs in zip(reusing.shard_results, every.shard_results, strict=True):
        assert [len(r.iterations) for r in mine.reports] == [
            len(r.iterations) for r in theirs.reports
        ]
        assert mine.stop_reasons == theirs.stop_reasons
    if budget is not None:
        # Reused shards charge nothing: the ledger spent only what ran.
        assert reusing.governor.spent_iters < every.governor.spent_iters


def test_task_key_covers_the_sliced_splits():
    x, y = var("x", 8), var("y", 8)
    p, q = var("p", 8), var("q", 8)
    lane = cone_shard("o1", {"o1": x + y})
    twin = cone_shard("o2", {"o2": p + q})
    split = Schedule(splits=(gt(x, 3),))
    assert ShardTask(lane, Schedule()).key()[0] == ShardTask(twin, Schedule()).key()[0]
    # The split reads only ``x``: it slices into the first lane alone.
    assert ShardTask(lane, split).key()[0] != ShardTask(twin, split).key()[0]
    both = Schedule(splits=(gt(x, 3), gt(p, 3)))
    assert ShardTask(lane, both).key()[0] == ShardTask(twin, both).key()[0]
    other = Schedule(splits=(gt(x, 3), gt(p, 4)))
    assert ShardTask(lane, other).key()[0] != ShardTask(twin, other).key()[0]
    # And the allocation is part of the key.
    assert (
        ShardTask(lane, Schedule(), Budget(iters=1)).key()[0]
        != ShardTask(twin, Schedule(), Budget(iters=2)).key()[0]
    )


def test_verify_quotas_draw_as_if_every_check_ran():
    """Under a BDD pool, each check's quota is what it would be had every
    earlier check run, so every verdict is the one a check of its own
    would give; the ledger charges only the nodes actually built.  The
    pool is large enough that the engine cap binds the first checks (equal
    quotas, so verdicts are reused) and small enough that later quotas fall
    below it (unequal quotas, so those checks run)."""
    design = get_design("stress_wide")
    pool = 460_000
    config = OptimizerConfig(
        verify=True, iter_limit=2, auto_shard_nodes=1, budget=Budget(bdd_nodes=pool)
    )
    ctx = DatapathOptimizer(design.input_ranges, config).optimize_verilog(
        design.verilog
    ).context
    row = ctx.governor.ledger["verify"]
    reused = row.get("reused_from", {})
    assert reused, "no verdict was reused"
    drawn = built = 0
    for name, expr in ctx.roots.items():
        expected = check_equivalent(
            expr,
            ctx.extracted[name],
            ctx.input_ranges,
            bdd_node_limit=min(max(0, pool - drawn), DEFAULT_BDD_NODE_LIMIT),
        )
        drawn += expected.bdd_nodes
        built += 0 if name in reused else expected.bdd_nodes
        assert repr(ctx.equivalence[name]) == repr(expected)
        assert ctx.equivalence[name].bdd_nodes == expected.bdd_nodes
    assert row["spent"]["bdd_nodes"] == built < drawn
