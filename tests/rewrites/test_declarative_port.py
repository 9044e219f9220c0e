"""Differential test: the declarative range-guarded rules against the
dynamic rules they replaced.

``abs-identity``, ``abs-negate``, ``trunc-elim``, ``lzc-shl`` and
``trunc-trunc`` were Python searchers and appliers; they are now patterns
with search-time guards.  The old implementations are kept verbatim in
``tests/oracles/dynamic_rules.py``.  On random analyzed graphs (``ABS`` /
``TRUNC`` / ``LZC`` / ``SHL`` / ``NEG`` / ``SUB`` over ``VAR`` leaves with
random input ranges and ``CONST`` leaves, random unions, and always one
class holding two ``CONST`` members, whose range is empty), each pair
must:

* return the same matches in the same order from the search phase, at
  every match limit (so a limit counts only matches that pass the guard);
* leave the same graph after one runner iteration, with the same
  application counts.

Registry designs never fire ``abs-identity``, ``abs-negate`` or
``lzc-shl``, so this test is their only behavioural check.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import DatapathAnalysis
from repro.egraph import EGraph, Runner
from repro.egraph.query import QueryPlan
from repro.egraph.runner import BackoffScheduler
from repro.intervals import IntervalSet
from repro.ir import ops
from repro.pipeline.budget import Budget
from repro.rewrites import range_rules, shift_rules

from oracles import dynamic_rules

def _x(env):
    return (env["x"],)


#: rule name -> (old dynamic rule, then the projections of an old and of a
#: new match onto what the right-hand side reads: the dynamic searchers
#: bound what their appliers needed, the patterns bind their variables).
PAIRS = {
    "abs-identity": (dynamic_rules.abs_identity_rule, _x, _x),
    "abs-negate": (dynamic_rules.abs_negate_rule, _x, _x),
    "trunc-elim": (dynamic_rules.trunc_elim_rule, _x, _x),
    "trunc-trunc": (
        dynamic_rules.trunc_trunc_rule,
        lambda env: (env["a"], env["w"]),
        lambda env: (env["a"], min(env["v"], env["w"])),
    ),
    "lzc-shl": (
        dynamic_rules.lzc_shl_rule,
        lambda env: (env["a"], env["w2"]),
        lambda env: (env["a"], env["w"] - env["s"]),
    ),
}

LIMITS = (1, 2, 3, 100_000)


def declarative(name: str):
    [rule] = [r for r in (*range_rules(), *shift_rules()) if r.name == name]
    assert not callable(rule.searcher) and not callable(rule.applier)
    return rule


steps = st.lists(
    st.tuples(st.integers(0, 8), *(st.integers(0, 99) for _ in range(3))),
    min_size=6,
    max_size=40,
)
ranges = st.tuples(st.integers(0, 6), st.integers(0, 40))


def build(plan: tuple) -> EGraph:
    """A clean analyzed graph; the same ``plan`` always builds the same
    graph, id for id."""
    (x_lo, x_span), (y_lo, y_span), moves = plan
    g = EGraph(
        [DatapathAnalysis({
            "x": IntervalSet.of(x_lo, x_lo + x_span),
            "y": IntervalSet.of(y_lo, y_lo + y_span),
        })]
    )
    ids = [g.add_node(ops.VAR, ("x", 6)), g.add_node(ops.VAR, ("y", 6))]
    ids += [g.add_const(value) for value in (-1, 0, 1, 2, 3, 5)]
    # One class with two CONST members: `(const ?s)` must bind only the
    # first, as `class_const` reads it.
    pair = g.add_const(4)
    g.union(pair, g.add_const(6))
    ids.append(pair)
    for kind, i, j, k in moves:
        a, b = (g.find(ids[n % len(ids)]) for n in (i, j))
        width = 1 + k % 7
        if kind == 0:
            ids.append(g.add_node(ops.ABS, (), (a,)))
        elif kind == 1:
            ids.append(g.add_node(ops.TRUNC, (width,), (a,)))
        elif kind == 2:
            ids.append(g.add_node(ops.LZC, (width,), (a,)))
        elif kind == 3:
            ids.append(g.add_node(ops.SHL, (), (a, b)))
        elif kind == 4:
            ids.append(g.add_node(ops.NEG, (), (a,)))
        elif kind == 5:
            ids.append(g.add_node(ops.SUB, (), (a, b)))
        elif kind == 6:
            shifted = g.add_node(ops.SHL, (), (a, g.add_const(k % 5)))
            ids.append(g.add_node(ops.LZC, (width + 3,), (shifted,)))
        elif kind == 7:
            ids.append(g.add_node(ops.TRUNC, (width,), (g.add_node(ops.TRUNC, (1 + j % 7,), (a,)),)))
        else:
            g.union(a, b)
    g.rebuild()
    return g


def structure(g: EGraph) -> list:
    return [(c.id, sorted(map(repr, c.nodes))) for c in g.snapshot(data=False).classes]


@settings(max_examples=150, deadline=None)
@given(plan=st.tuples(ranges, ranges, steps))
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_same_matches_in_the_same_order(name, plan):
    make_old, old_view, new_view = PAIRS[name]
    old_rule = make_old()
    g = build(plan)
    plan_search = QueryPlan([declarative(name)])
    for limit in LIMITS:
        old = [
            (cid, old_view(env))
            for cid, env in old_rule.search(g, g.nodes_by_op(), limit)
        ]
        new = [
            (cid, new_view(env))
            for cid, env in plan_search.search(g, {0: limit})[0]
        ]
        assert new == old, limit


@settings(max_examples=100, deadline=None)
@given(plan=st.tuples(ranges, ranges, steps), limit=st.sampled_from(LIMITS))
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_same_graph_after_one_iteration(name, plan, limit):
    graphs, reports = [], []
    for rule in (PAIRS[name][0](), declarative(name)):
        g = build(plan)
        runner = Runner(
            g, [rule],
            scheduler=BackoffScheduler(match_limit=limit),
            budget=Budget(iters=1),
        )
        reports.append(runner.run().iterations[0].applied)
        graphs.append((g.version, g.node_count, g.class_count, structure(g)))
    assert reports[1] == reports[0]
    assert graphs[1] == graphs[0]


def test_the_generator_reaches_every_rule():
    """The fixed plan below fires all five rules, so the property tests are
    not vacuous for any of them."""
    moves = [
        (4, 0, 0, 0),    # NEG(x): range <= 0
        (0, 9, 0, 0),    # ABS(NEG x)  -> abs-negate
        (0, 0, 0, 0),    # ABS(x)      -> abs-identity
        (1, 0, 0, 6),    # TRUNC_7(x)  -> trunc-elim
        (7, 0, 6, 6),    # TRUNC_7(TRUNC_7 x) -> trunc-trunc
        (6, 0, 0, 13),   # LZC_10(x << 3) -> lzc-shl
    ]
    plan = ((1, 3), (0, 3), moves)
    for name in PAIRS:
        g = build(plan)
        found = QueryPlan([declarative(name)]).search(g, {0: 100})[0]
        assert found, name
