"""Differential parity: flat-core ``EGraph`` vs the legacy object engine.

The flat struct-of-arrays core replaced the per-object engine behind the
same API; the legacy implementation is kept in the test-suite
(:mod:`oracles.legacy`) as a differential oracle.  Both engines take the
same random add/union workloads and saturate the same rule sets, and must
agree on every observable: class/node counts, the partition of tracked ids
(canonical ids up to isomorphism — the engines allocate ids differently, so
only the induced equivalence relation is comparable) and extraction costs.

Saturation runs compare *fixpoints*: the flat graph goes through the
production :class:`~repro.egraph.runner.Runner` (compiled matchers and
builders), the legacy graph through the interpreted reference loop
(:func:`oracles.reference.saturate`).  A saturated e-graph does not depend
on the schedule that reached it, so the two must coincide.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.legacy import LegacyEGraph
from oracles.reference import ast_size_costs, saturate

from repro.egraph import EGraph, Extractor, Runner
from repro.egraph.extract import AstSizeCost
from repro.egraph.rewrite import rewrite
from repro.egraph.runner import StopReason
from repro.ir import ops
from repro.pipeline.budget import Budget

#: Generous enough that every workload below saturates.
SATURATE = Budget(iters=100, nodes=100_000, time_s=60.0)


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
    (flat runs the production core fixpoint, legacy the generic reference
    fixpoint over ``EClass.nodes``)."""
    flat, flat_ids = _drive(EGraph, load)
    legacy, legacy_ids = _drive(LegacyEGraph, load)
    ex_flat = Extractor(flat, AstSizeCost())
    reference = ast_size_costs(legacy)
    for fid, lid in zip(flat_ids, legacy_ids, strict=True):
        assert ex_flat.cost_of(fid) == reference[legacy.find(lid)]


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
    """Saturated to a fixpoint — the flat graph by the compiled Runner, the
    legacy graph by the interpreted reference loop — both engines hold the
    same classes and nodes and extract the same AST size at every root."""

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
    report = Runner(flat, _rules(), budget=SATURATE, check_invariants=True).run()
    saturate(legacy, _rules())
    legacy.check_invariants()

    assert report.stop_reason is StopReason.SATURATED
    assert flat.class_count == legacy.class_count
    assert flat.node_count == legacy.node_count
    ex_flat = Extractor(flat, AstSizeCost())
    reference = ast_size_costs(legacy)
    for fid, lid in zip(flat_ids, legacy_ids, strict=True):
        assert ex_flat.cost_of(fid) == reference[legacy.find(lid)]


def test_rules_sharing_a_name_keep_their_own_matchers():
    """Two rules may share a name: each must search with its own matcher and
    apply its own right-hand side.  Keyed by name, the MUL matcher ran over
    the ADD candidates and its matches were applied with the ADD rule's RHS,
    merging ``a+b`` with ``a*b`` on the flat core only."""
    rules = [
        rewrite("comm", "(+ ?x ?y)", "(+ ?y ?x)"),
        rewrite("comm", "(* ?x ?y)", "(* ?y ?x)"),
    ]
    shapes = {}
    for engine in (EGraph, LegacyEGraph):
        g = engine()
        a = g.add_node(ops.VAR, ("a", 8))
        b = g.add_node(ops.VAR, ("b", 8))
        add = g.add_node(ops.ADD, (), (a, b))
        mul = g.add_node(ops.MUL, (), (a, b))
        g.rebuild()
        if engine is EGraph:
            report = Runner(g, rules, budget=SATURATE, check_invariants=True).run()
            assert report.stop_reason is StopReason.SATURATED
        else:
            saturate(g, rules)
        assert g.find(add) != g.find(mul)
        assert g.find(g.add_node(ops.ADD, (), (b, a))) == g.find(add)
        assert g.find(g.add_node(ops.MUL, (), (b, a))) == g.find(mul)
        shapes[engine] = (g.class_count, g.node_count)
    assert shapes[EGraph] == shapes[LegacyEGraph]
