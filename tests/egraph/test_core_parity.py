"""Differential parity: flat-core ``EGraph`` vs the legacy object engine.

The flat struct-of-arrays core replaced the per-object engine behind the
same API; the legacy implementation is kept (``repro.egraph.legacy``) as a
differential oracle.  Both engines are driven in lockstep through random
add/union workloads, saturation runs, and the full optimization pipeline,
and must agree on every observable: class/node counts, the partition of
tracked ids (canonical ids up to isomorphism — the engines allocate ids
differently, so only the induced equivalence relation is comparable),
extraction costs, and each registry design's optimized cost.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import DESIGNS, get_design
from repro.egraph import EGraph, Extractor, Runner
from repro.egraph.extract import AstSizeCost
from repro.egraph.legacy import LegacyEGraph
from repro.egraph.rewrite import rewrite
from repro.ir import ops

ENGINES = (EGraph, LegacyEGraph)


@st.composite
def workload(draw):
    n_leaves = draw(st.integers(2, 5))
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 999), st.integers(0, 999)),
            min_size=1,
            max_size=40,
        )
    )
    return n_leaves, steps


def _drive(engine, load):
    """Apply one workload to a fresh engine; returns (graph, tracked ids)."""
    n_leaves, steps = load
    g = engine()
    ids = [g.add_node(ops.VAR, (f"v{i}", 4)) for i in range(n_leaves)]
    for kind, x, y in steps:
        a, b = ids[x % len(ids)], ids[y % len(ids)]
        if kind == 0:
            ids.append(g.add_node(ops.NEG, (), (g.find(a),)))
        elif kind == 1:
            ids.append(g.add_node(ops.ADD, (), (g.find(a), g.find(b))))
        elif kind == 2:
            ids.append(g.add_node(ops.MUX, (), (g.find(a), g.find(b), g.find(a))))
        else:
            g.union(a, b)
    g.rebuild()
    return g, ids


def _partition(g, ids):
    """The equivalence relation over tracked ids, as a frozenset of groups."""
    groups: dict[int, list[int]] = {}
    for pos, class_id in enumerate(ids):
        groups.setdefault(g.find(class_id), []).append(pos)
    return frozenset(tuple(members) for members in groups.values())


@settings(max_examples=60, deadline=None)
@given(workload())
def test_counts_and_partition_agree(load):
    flat, flat_ids = _drive(EGraph, load)
    legacy, legacy_ids = _drive(LegacyEGraph, load)
    assert flat.class_count == legacy.class_count
    assert flat.node_count == legacy.node_count
    assert _partition(flat, flat_ids) == _partition(legacy, legacy_ids)


@settings(max_examples=40, deadline=None)
@given(workload())
def test_extraction_costs_agree(load):
    """Bottom-up extraction sees the same best AST size for every tracked id
    (flat runs the façade/view path, legacy the object path)."""
    flat, flat_ids = _drive(EGraph, load)
    legacy, legacy_ids = _drive(LegacyEGraph, load)
    ex_flat = Extractor(flat, AstSizeCost())
    ex_legacy = Extractor(legacy, AstSizeCost())
    for fid, lid in zip(flat_ids, legacy_ids, strict=True):
        assert ex_flat.cost_of(fid) == ex_legacy.cost_of(lid)


#: A small confluent rule set exercising search, apply, and congruence.
def _rules():
    return [
        rewrite("commute-add", "(+ ?a ?b)", "(+ ?b ?a)"),
        rewrite("mul-two", "(* ?a 2)", "(<< ?a 1)"),
        rewrite("add-self", "(+ ?a ?a)", "(* ?a 2)"),
        rewrite("shift-unshift", "(>> (<< ?a 1) 1)", "?a"),
    ]


@st.composite
def expr_workload(draw):
    """A random expression DAG built bottom-up over three leaves."""
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 99), st.integers(0, 99)),
            min_size=1,
            max_size=12,
        )
    )
    return steps


@settings(max_examples=25, deadline=None)
@given(expr_workload())
def test_saturation_runs_agree(steps):
    """A bounded Runner over the same rule set leaves both engines with the
    same class count and the same best extraction cost at every root."""

    def build(engine):
        g = engine()
        ids = [g.add_node(ops.VAR, (f"v{i}", 8)) for i in range(3)]
        ids.append(g.add_node(ops.CONST, (2,)))
        for kind, x, y in steps:
            a, b = ids[x % len(ids)], ids[y % len(ids)]
            if kind == 0:
                ids.append(g.add_node(ops.ADD, (), (a, b)))
            elif kind == 1:
                ids.append(g.add_node(ops.MUL, (), (a, ids[3])))
            elif kind == 2:
                ids.append(g.add_node(ops.SHL, (), (a, g.add_const(1))))
            else:
                ids.append(g.add_node(ops.SHR, (), (a, g.add_const(1))))
        g.rebuild()
        return g, ids

    flat, flat_ids = build(EGraph)
    legacy, legacy_ids = build(LegacyEGraph)
    from repro.pipeline.budget import Budget

    budget = Budget(iters=3, nodes=4_000, time_s=30.0)
    Runner(flat, _rules(), budget=budget, check_invariants=True).run()
    Runner(legacy, _rules(), budget=budget, check_invariants=True).run()

    assert flat.class_count == legacy.class_count
    assert flat.node_count == legacy.node_count
    ex_flat = Extractor(flat, AstSizeCost())
    ex_legacy = Extractor(legacy, AstSizeCost())
    for fid, lid in zip(flat_ids, legacy_ids, strict=True):
        assert ex_flat.cost_of(fid) == ex_legacy.cost_of(lid)


#: Harness limits for the full-pipeline differential (keeps legacy runtime
#: tolerable while every optimization mechanism still fires).
ITERS = 3
NODE_LIMIT = 8_000


def _optimize(design, engine_cls, monkeypatch):
    import repro.pipeline.stages as stages
    from repro.pipeline import Extract, Ingest, Pipeline, Saturate
    from repro.rewrites import compose_rules

    monkeypatch.setattr(stages, "EGraph", engine_cls)
    result = Pipeline(
        [
            Ingest(source=design.verilog),
            Saturate(compose_rules(), iter_limit=ITERS, node_limit=NODE_LIMIT),
            Extract(),
        ]
    ).run(input_ranges=design.input_ranges)
    return {name: cost.key for name, cost in result.optimized_costs.items()}


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_registry_designs_optimized_costs_match_legacy(name, monkeypatch):
    """The flat core optimizes every registry design to exactly the cost the
    legacy engine reached under the same budgets."""
    design = get_design(name)
    flat = _optimize(design, EGraph, monkeypatch)
    legacy = _optimize(design, LegacyEGraph, monkeypatch)
    assert flat == legacy


def test_rules_sharing_a_name_keep_their_own_matchers():
    """Two rules may share a name: each must search with its own matcher and
    apply its own right-hand side.  Keyed by name, the MUL matcher ran over
    the ADD candidates and its matches were applied with the ADD rule's RHS,
    merging ``a+b`` with ``a*b`` on the flat core only."""
    from repro.pipeline.budget import Budget

    rules = [
        rewrite("comm", "(+ ?x ?y)", "(+ ?y ?x)"),
        rewrite("comm", "(* ?x ?y)", "(* ?y ?x)"),
    ]
    shapes = {}
    for engine in ENGINES:
        g = engine()
        a = g.add_node(ops.VAR, ("a", 8))
        b = g.add_node(ops.VAR, ("b", 8))
        add = g.add_node(ops.ADD, (), (a, b))
        mul = g.add_node(ops.MUL, (), (a, b))
        g.rebuild()
        report = Runner(g, rules, budget=Budget(iters=3), check_invariants=True).run()
        assert g.find(add) != g.find(mul)
        assert g.find(g.add_node(ops.ADD, (), (b, a))) == g.find(add)
        assert g.find(g.add_node(ops.MUL, (), (b, a))) == g.find(mul)
        shapes[engine] = (g.class_count, g.node_count, report.stop_reason)
    assert shapes[EGraph] == shapes[LegacyEGraph]
