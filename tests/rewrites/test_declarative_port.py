"""Differential test: the declarative rules against the dynamic rules
they replaced.

``abs-identity``, ``abs-negate``, ``trunc-elim``, ``lzc-shl`` and
``trunc-trunc`` were Python searchers and appliers; they are now patterns
with search-time guards.  ``mux-pull`` (41 arms), ``mux-cond-const``,
``mul-pow2-shl`` and ``minmax-resolve`` (arms), ``assume-merge-nested``
and ``assume-true-elim`` (constraint tails) and ``lzc-narrow`` (an
attribute derived from a range at search time) followed.  The old
implementations are kept verbatim in ``tests/oracles/dynamic_rules.py``.
On random analyzed graphs, each pair must:

* return the same matches in the same order from the search phase, at
  every match limit (so a limit counts only matches that pass the guard);
* leave the same graph after one runner iteration, with the same
  application counts.

The first five rules run on ``ABS`` / ``TRUNC`` / ``LZC`` / ``SHL`` /
``NEG`` / ``SUB`` graphs over ``VAR`` leaves with random input ranges and
``CONST`` leaves, random unions, and always one class holding two
``CONST`` members, whose range is empty.  The other seven run on graphs of
every operator ``mux-pull`` pulls through, muxes over constant and
variable conditions, single- and multi-constraint ASSUMEs, nested ASSUMEs,
products of two power-of-two constants, and MIN/MAX over equal point
ranges with one side partial (where ``minmax-resolve``'s second arm must
not fire when the first arm's dropped side is partial).  One deliberate
difference: ``lzc-narrow`` no longer matches an LZC whose operand's range
starts at or above ``2^w``, where the old rule derived ``k < 0`` and could
crash the analysis.

Registry designs never fire ``abs-identity``, ``abs-negate``, ``lzc-shl``,
``mul-pow2-shl`` or ``minmax-resolve``, so this test is their only
behavioural check.  ``lzc-width-reduce`` stays dynamic: the declarative
form finds the same matches but builds its constant before its LZC, so
the graphs differ (pinned below).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import DatapathAnalysis, range_of, total_of
from repro.egraph import EGraph, Runner
from repro.egraph.pattern import PatternNode
from repro.egraph.query import ARM, QueryPlan
from repro.egraph.rewrite import dynamic
from repro.egraph.runner import BackoffScheduler
from repro.intervals import IntervalSet
from repro.ir import ops
from repro.pipeline.budget import Budget
from repro.rewrites import compose_rules
from repro.rewrites.range_rules import lzc_width_reduce_rule
from repro.rewrites.soundness import attr_lt, derive, drule

from oracles import dynamic_rules

def _x(env):
    return (env["x"],)


def _pulled_old(env):
    outer, position = env["outer"], env["pos"]
    others = tuple(None if i == position else c for i, c in enumerate(outer.children))
    return (outer.op, outer.attrs, others, env["mux"].children)


def _pulled_new(env):
    lhs = declarative("mux-pull").arms[env[ARM]].lhs
    others = tuple(
        None if isinstance(child, PatternNode) else env[child.name]
        for child in lhs.children
    )
    return (
        lhs.op,
        tuple(env[a.name] for a in lhs.attrs),
        others,
        (env["c"], env["t"], env["f"]),
    )


def _keep(env):
    return (env["keep"],)


def _kept(*names):
    """The class an arm keeps: ``names[i]`` for arm ``i``."""
    return lambda env: (env[names[env[ARM]]],)


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

#: The same for the rules ported with arms, tails and derived attributes.
WIDE_PAIRS = {
    "mux-pull": (dynamic_rules.mux_pull_rule, _pulled_old, _pulled_new),
    "mux-cond-const": (dynamic_rules.mux_cond_const_rule, _keep, _kept("t", "f")),
    "mul-pow2-shl": (
        dynamic_rules.mul_pow2_to_shl,
        lambda env: (env["a"], env["k"]),
        lambda env: (env["a"], env["v"].bit_length() - 1),
    ),
    "minmax-resolve": (dynamic_rules.minmax_resolve_rule, _keep, _kept("a", "b", "b", "a")),
    "assume-true-elim": (dynamic_rules.assume_true_elim_rule, _x, _x),
    "assume-merge-nested": (
        dynamic_rules.assume_merge_nested_rule,
        lambda env: (env["inner"].children[0], env["outer"], env["inner"].children[1:]),
        lambda env: (env["x"], env["outer"], env["inner"]),
    ),
    "lzc-narrow": (
        lambda: _without_negative_k(dynamic_rules.lzc_narrow_rule()),
        lambda env: (env["x"], env["w"], env["k"]),
        lambda env: (env["x"], env["w"], env["k"]),
    ),
}


def _without_negative_k(old):
    """The old ``lzc-narrow`` minus the matches the port refuses: a range
    from ``2^w`` up gave it ``k < 0`` (see the test below)."""
    return dynamic(
        old.name,
        lambda egraph, index: (m for m in old.searcher(egraph, index) if m[1]["k"] >= 0),
        old.applier,
    )

LIMITS = (1, 2, 3, 100_000)


def declarative(name: str):
    [rule] = [r for r in compose_rules() if r.name == name]
    assert rule.searcher is None and rule.applier is None
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


#: Operators ``mux-pull`` pulls through, by arity.
BINARY = (
    ops.ADD, ops.SUB, ops.MUL, ops.SHL, ops.SHR, ops.AND, ops.OR, ops.XOR,
    ops.LT, ops.LE, ops.GT, ops.GE, ops.EQ, ops.NE, ops.CONCAT, ops.MIN, ops.MAX,
)
UNARY = (ops.NEG, ops.NOT, ops.LNOT, ops.LZC, ops.TRUNC, ops.SLICE, ops.ABS)


def _attrs(op, k: int) -> tuple:
    if op is ops.SLICE:
        return (1 + k % 4, k % 2)
    return tuple(1 + k % 6 for _ in op.attr_names)


wide_steps = st.lists(
    st.tuples(st.integers(0, 10), *(st.integers(0, 99) for _ in range(3))),
    min_size=6,
    max_size=40,
)


def build_wide(plan: tuple) -> EGraph:
    """A clean analyzed graph over every operator the seven rules read; the
    same ``plan`` always builds the same graph, id for id."""
    (x_lo, x_span), (y_lo, y_span), moves = plan
    g = EGraph(
        [DatapathAnalysis({
            "x": IntervalSet.of(x_lo, x_lo + x_span),
            "y": IntervalSet.of(y_lo, y_lo + y_span),
            "c": IntervalSet.of(0, 1),
        })]
    )
    ids = [g.add_node(ops.VAR, (name, width)) for name, width in (("x", 6), ("y", 6), ("c", 1))]
    ids += [g.add_const(value) for value in (-1, 0, 1, 2, 3, 4, 8)]
    # One class with two CONST members: `(const ?v)` binds only the first.
    pair = g.add_const(16)
    g.union(pair, g.add_const(6))
    ids.append(pair)
    for kind, i, j, k in moves:
        a, b, c = (g.find(ids[n % len(ids)]) for n in (i, j, k))
        if kind == 0:
            op = BINARY[k % len(BINARY)]
            ids.append(g.add_node(op, _attrs(op, i), (a, b)))
        elif kind == 1:
            op = UNARY[k % len(UNARY)]
            ids.append(g.add_node(op, _attrs(op, j), (a,)))
        elif kind == 2:
            ids.append(g.add_node(ops.MUX, (), (a, b, c)))
        elif kind == 3:
            ids.append(g.add_node(ops.ASSUME, (), (a, b)))
        elif kind == 4:
            ids.append(g.add_node(ops.ASSUME, (), (a, b, c)))
        elif kind == 5:
            inner = g.add_node(ops.ASSUME, (), (a, b) if k % 2 else (a, b, c))
            ids.append(g.add_node(ops.ASSUME, (), (inner, c)))
        elif kind == 6:
            # Both operands powers of two: mul-pow2-shl matches twice.
            left, right = g.add_const(1 << i % 4), g.add_const(1 << j % 4)
            ids.append(g.add_node(ops.MUL, (), (left, right)))
            ids.append(g.add_node(ops.MUL, (), (a, right)))
        elif kind == 7:
            # Equal point ranges, one side partial: an ASSUME of a constant.
            point = g.add_const(k % 4)
            partial = g.add_node(ops.ASSUME, (), (point, a))
            op = ops.MIN if i % 2 else ops.MAX
            ids.append(g.add_node(op, (), (point, partial) if j % 2 else (partial, point)))
        elif kind == 8:
            test = g.add_node(ops.LT, (), (a, g.add_const(k % 9)))
            ids.append(g.add_node(ops.MUX, (), (test, b, c)))
        elif kind == 9:
            ids.append(g.add_node(ops.LZC, (3 + k % 6,), (a,)))
        else:
            g.union(a, b)
    g.rebuild()
    return g


@settings(max_examples=150, deadline=None)
@given(plan=st.tuples(ranges, ranges, wide_steps))
@pytest.mark.parametrize("name", sorted(WIDE_PAIRS))
def test_ported_rules_give_the_same_matches_in_the_same_order(name, plan):
    make_old, old_view, new_view = WIDE_PAIRS[name]
    old_rule = make_old()
    g = build_wide(plan)
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
@given(plan=st.tuples(ranges, ranges, wide_steps), limit=st.sampled_from(LIMITS))
@pytest.mark.parametrize("name", sorted(WIDE_PAIRS))
def test_ported_rules_leave_the_same_graph_after_one_iteration(name, plan, limit):
    graphs, reports = [], []
    for rule in (WIDE_PAIRS[name][0](), declarative(name)):
        g = build_wide(plan)
        runner = Runner(
            g, [rule],
            scheduler=BackoffScheduler(match_limit=limit),
            budget=Budget(iters=1),
        )
        reports.append(runner.run().iterations[0].applied)
        graphs.append((g.version, g.node_count, g.class_count, structure(g)))
    assert reports[1] == reports[0]
    assert graphs[1] == graphs[0]


#: A plan whose graph every ported rule matches (see the test below).
WIDE_PLAN = ((2, 5), (0, 0), [
    (0, 0, 1, 0),    # ADD(x, y)
    (2, 2, 0, 1),    # MUX(c, x, y)
    (0, 12, 0, 0),   # ADD(MUX, x)          -> mux-pull
    (8, 0, 0, 1),    # MUX(x < 1, x, y)     -> mux-cond-const (always false)
    (6, 1, 3, 0),    # MUL(2, 8), MUL(y, 8) -> mul-pow2-shl, both sides
    (7, 2, 1, 3),    # MAX(3, ASSUME(3, c)) -> minmax-resolve
    (4, 0, 5, 6),    # ASSUME(x, 1, 2)      -> assume-true-elim
    (5, 0, 2, 1),    # ASSUME(ASSUME(x, c), y) -> assume-merge-nested
    (9, 0, 0, 2),    # LZC_5(x), x in [2, 7] -> lzc-narrow
])


def test_the_wide_generator_reaches_every_ported_rule():
    """The fixed plan above matches all seven rules, so the property tests
    are not vacuous for any of them, and ``mul-pow2-shl`` matches both
    operands of a product of two powers of two."""
    g = build_wide(WIDE_PLAN)
    for name in WIDE_PAIRS:
        found = QueryPlan([declarative(name)]).search(g, {0: 100})[0]
        assert found, name
    both = [
        env[ARM] for _, env in QueryPlan([declarative("mul-pow2-shl")]).search(g, {0: 100})[0]
    ]
    assert both.count(0) >= 1 and both.count(1) >= 2


def test_minmax_second_arm_is_an_elif():
    """MIN over two equal point ranges whose right side is partial: the
    first arm (keep the left, drop the right) fails its totality guard, and
    the second arm (keep the right, drop the total left) must not fire in
    its place."""
    g = build_wide(((0, 0), (0, 0), [(7, 13, 1, 2)]))  # MIN(2, ASSUME(2, c))
    [(_, (left, right))] = [
        (cid, tuple(node.children)) for cid, node in g.nodes_by_op()[ops.MIN]
    ]
    assert range_of(g, left) == range_of(g, right) == IntervalSet.of(2, 2)
    assert total_of(g, left) and not total_of(g, right)
    assert QueryPlan([declarative("minmax-resolve")]).search(g, {0: 100})[0] == []
    assert dynamic_rules.minmax_resolve_rule().search(g, g.nodes_by_op(), 100) == []


def test_lzc_narrow_refuses_a_range_above_its_width():
    """``LZC_1(x)`` with ``x == 4`` is ``*``; the old searcher derived
    ``k = 1 - 3 = -2`` and its applier built ``LZC_-1``, which the analysis
    rejects.  The port's ``k >= 0`` guard leaves the node alone."""
    plan = ((4, 0), (0, 0), [(1, 0, 0, 17)])  # LZC_1(x)
    with pytest.raises(ValueError, match="negative width"):
        Runner(build_wide(plan), [dynamic_rules.lzc_narrow_rule()], budget=Budget(iters=1)).run()
    report = Runner(build_wide(plan), [declarative("lzc-narrow")], budget=Budget(iters=1)).run()
    assert report.iterations[0].applied == {}


#: ``lzc-width-reduce`` written in the rule language: the matches agree,
#: but the declarative right-hand side builds the constant before the LZC.
WIDTH_REDUCE = drule(
    "lzc-width-reduce",
    "(lzc ?w ?x)",
    "(+ (const (- ?w ?m)) (lzc ?m ?x))",
    guards=(derive("m", "(bitlen (hi ?x))"), attr_lt("0", "?m"), attr_lt("?m", "?w")),
)


def test_lzc_width_reduce_stays_dynamic():
    """On ``LZC_8(x)`` with ``x`` in ``[2, 7]`` both forms find the same
    match, but the graphs after one iteration differ: the dynamic applier
    adds ``LZC_3(x)`` before the constant 5, a bottom-up build the other
    way round, so the two new classes swap ids."""
    plan = ((2, 5), (0, 0), [(9, 0, 0, 5)])
    old = lzc_width_reduce_rule()
    g = build_wide(plan)
    assert [(cid, (env["x"], env["m"])) for cid, env in old.search(g, g.nodes_by_op(), 100)] == [
        (cid, (env["x"], env["m"])) for cid, env in QueryPlan([WIDTH_REDUCE]).search(g, {0: 100})[0]
    ]
    graphs = []
    for rule in (old, WIDTH_REDUCE):
        g = build_wide(plan)
        Runner(g, [rule], budget=Budget(iters=1)).run()
        graphs.append(structure(g))
    assert graphs[0] != graphs[1]
