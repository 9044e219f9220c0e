"""Differential test: compiled matchers vs the interpreted ``ematch``.

Random clean flat graphs (binary operators, width-attributed ``LZC`` /
``TRUNC`` / ``CONCAT``, variadic ``ASSUME`` with two to four children,
``CONST`` and ``VAR`` leaves, random unions) are searched with random
left-hand sides (repeated class and attribute variables, literal leaves,
nesting) both ways: through a :class:`~repro.egraph.query.QueryPlan` — the
runner's batched search — and through :func:`~oracles.ematch.ematch`.
Every rule must get the same ``(class, env)`` list in the same order,
including where a small match limit truncates it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.egraph import EGraph
from repro.egraph.pattern import AttrVar, PatternNode, PatternVar
from repro.egraph.query import QueryPlan
from repro.egraph.rewrite import Arm, Rewrite
from repro.ir import ops

from oracles.ematch import ematch

CLASS_VARS = ("a", "b", "c")
ATTRS = (AttrVar("w"), AttrVar("v"), 4, 8)
LIMITS = (1, 2, 3, 7, 100_000)


@st.composite
def graphs(draw):
    """A small clean graph built from random steps."""
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.integers(0, 99),
                st.integers(0, 99),
                st.integers(0, 99),
            ),
            min_size=8,
            max_size=40,
        )
    )
    g = EGraph()
    ids = [g.add_node(ops.VAR, (name, 8)) for name in ("x", "y")]
    ids += [g.add_const(value) for value in (0, 1, 2)]
    for kind, i, j, k in steps:
        a, b, c = (g.find(ids[n % len(ids)]) for n in (i, j, k))
        width = (4, 8)[k % 2]
        if kind == 0:
            ids.append(g.add_node(ops.ADD, (), (a, b)))
        elif kind == 1:
            ids.append(g.add_node(ops.MUL, (), (a, b)))
        elif kind == 2:
            ids.append(g.add_node(ops.LZC, (width,), (a,)))
        elif kind == 3:
            ids.append(g.add_node(ops.TRUNC, (width,), (a,)))
        elif kind == 4:
            ids.append(g.add_node(ops.CONCAT, (width,), (a, b)))
        elif kind == 5:
            kids = (a, b, c, a)[: 2 + k % 3]
            ids.append(g.add_node(ops.ASSUME, (), kids))
        else:
            g.union(a, b)
    g.rebuild()
    return g


def _const(value: int) -> PatternNode:
    return PatternNode(ops.CONST, (value,), ())


#: Mostly variables, so that nested patterns still find matches.
leaves = st.one_of(
    st.sampled_from(CLASS_VARS).map(PatternVar),
    st.sampled_from(CLASS_VARS).map(PatternVar),
    st.integers(0, 2).map(_const),
    # Binds the class's first CONST member only, in both matchers.
    st.just(PatternNode(ops.CONST, (AttrVar("v"),), ())),
)


def _extend(children):
    binary = st.tuples(st.sampled_from((ops.ADD, ops.MUL)), children, children).map(
        lambda t: PatternNode(t[0], (), (t[1], t[2]))
    )
    width_op = st.tuples(
        st.sampled_from((ops.LZC, ops.TRUNC)), st.sampled_from(ATTRS), children
    ).map(lambda t: PatternNode(t[0], (t[1],), (t[2],)))
    concat = st.tuples(st.sampled_from(ATTRS), children, children).map(
        lambda t: PatternNode(ops.CONCAT, (t[0],), (t[1], t[2]))
    )
    assume = st.lists(children, min_size=2, max_size=4).map(
        lambda kids: PatternNode(ops.ASSUME, (), tuple(kids))
    )
    return st.one_of(binary, width_op, concat, assume)


lhs_patterns = st.recursive(leaves, _extend, max_leaves=5).filter(
    lambda p: isinstance(p, PatternNode)
)


def _searched(name, lhs):
    """A one-arm rule that is only searched (its right-hand side is its
    left-hand side)."""
    return Rewrite(name, (Arm(lhs, lhs),))


@settings(max_examples=300, deadline=None)
@given(
    graphs(),
    st.lists(st.tuples(lhs_patterns, st.sampled_from(LIMITS)), min_size=1, max_size=4),
)
def test_query_plan_search_matches_ematch(g, searches):
    """One batched plan over several rules (some sharing a root operator)
    returns, per rule, exactly what ``ematch`` returns for that rule alone."""
    plan = QueryPlan([_searched(f"r{i}", lhs) for i, (lhs, _) in enumerate(searches)])
    found = plan.search(g, {i: limit for i, (_, limit) in enumerate(searches)})
    for position, (lhs, limit) in enumerate(searches):
        assert found.get(position, []) == ematch(g, lhs, limit=limit), lhs


def test_truncation_keeps_the_interpreted_prefix():
    """Commuted sums give ``(+ ?a ?b)`` several matches; every limit cuts
    the compiled list at the same prefix of the interpreted order."""
    g = EGraph()
    x = g.add_node(ops.VAR, ("x", 8))
    y = g.add_node(ops.VAR, ("y", 8))
    one = g.add_const(1)
    sums = [g.add_node(ops.ADD, (), pair) for pair in ((x, y), (y, x), (x, one), (one, y))]
    g.union(sums[0], sums[2])
    g.rebuild()
    lhs = PatternNode(ops.ADD, (), (PatternVar("a"), PatternVar("b")))
    full = ematch(g, lhs)
    assert len(full) == 4
    for limit in range(1, 6):
        plan = QueryPlan([_searched("sum", lhs)])
        assert plan.search(g, {0: limit})[0] == full[:limit]


def test_repeated_variables_must_agree():
    """A repeated attribute variable and a repeated class variable both
    constrain the match: only the nodes whose widths and operands agree."""
    g = EGraph()
    x = g.add_node(ops.VAR, ("x", 8))
    y = g.add_node(ops.VAR, ("y", 8))
    for outer, inner in ((4, 4), (8, 4), (8, 8)):
        lz = g.add_node(ops.LZC, (inner,), (x,))
        g.add_node(ops.CONCAT, (outer,), (lz, x))
        g.add_node(ops.CONCAT, (outer,), (lz, y))
    g.rebuild()
    a = PatternVar("a")
    lhs = PatternNode(
        ops.CONCAT, (AttrVar("w"),), (PatternNode(ops.LZC, (AttrVar("w"),), (a,)), a)
    )
    plan = QueryPlan([_searched("same", lhs)])
    found = plan.search(g, {0: 100})[0]
    assert found == ematch(g, lhs)
    assert [env for _, env in found] == [{"w": 4, "a": x}, {"w": 8, "a": x}]


@settings(max_examples=150, deadline=None)
@given(
    graphs(),
    st.lists(st.tuples(lhs_patterns, st.sampled_from(LIMITS)), min_size=1, max_size=4),
    st.lists(st.tuples(st.booleans(), st.integers(0, 99), st.integers(0, 99)),
             min_size=1, max_size=8),
)
def test_a_plan_searched_again_sees_the_changed_graph(g, searches, edits):
    """The per-search member memo is dropped when the search ends: the same
    plan, searched again after nodes are added and classes merged, answers
    what ``ematch`` answers on the changed graph."""
    plan = QueryPlan([_searched(f"r{i}", lhs) for i, (lhs, _) in enumerate(searches)])
    budgets = {i: limit for i, (_, limit) in enumerate(searches)}
    plan.search(g, budgets)
    ids = g.core.class_ids()
    for merge, i, j in edits:
        a, b = g.find(ids[i % len(ids)]), g.find(ids[j % len(ids)])
        if merge:
            g.union(a, b)
        else:
            ids.append(g.add_node(ops.ADD, (), (a, b)))
    g.rebuild()
    found = plan.search(g, budgets)
    for position, (lhs, limit) in enumerate(searches):
        assert found.get(position, []) == ematch(g, lhs, limit=limit), lhs
