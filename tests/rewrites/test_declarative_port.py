"""Differential test: the declarative rules against the dynamic rules
they replaced.

``abs-identity``, ``abs-negate``, ``trunc-elim``, ``lzc-shl`` and
``trunc-trunc`` were Python searchers and appliers; they are now patterns
with search-time guards.  ``mux-pull`` (41 arms), ``mux-cond-const``,
``mul-pow2-shl`` and ``minmax-resolve`` (arms), ``assume-merge-nested``
and ``assume-true-elim`` (constraint tails) and ``lzc-narrow`` (an
attribute derived from a range at search time) followed, and then the
last six: ``mux-branch-assume`` (a structural guard), ``assume-distribute``
(an operator set), ``assume-mux-prune`` (two arms over one left-hand side,
the second looking up the condition's negation), ``lzc-width-reduce``
(``max`` in a derived attribute), ``lzc-norm-invariant`` (an as-pattern and
an upper bound computed from a width) and ``case-split-shift-gt1`` (an
as-pattern on the right-hand side).  The old implementations are kept
verbatim in ``tests/oracles/dynamic_rules.py``, with a one-iteration
reference driver, since the runner only runs declarative rules.  On random
analyzed graphs, each pair must:

* return the same matches in the same order from the search phase, at
  every match limit (so a limit counts only matches that pass the guard);
* leave the same graph after one iteration, with the same application
  counts.  ``mux-branch-assume`` and ``lzc-width-reduce`` build their
  right-hand sides bottom-up where the appliers built ``LNOT`` and the
  narrow ``LZC`` first, so their graphs are compared up to class-id
  renaming.

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

Two more differences are deliberate and pinned below: the case split
matches every ``SHR`` member of the subtrahend's class where the old rule
took the first one only, and ``lzc-width-reduce`` gives other class ids.

Registry designs never fire ``abs-identity``, ``abs-negate``, ``lzc-shl``,
``mul-pow2-shl``, ``minmax-resolve`` or ``lzc-norm-invariant``, so this
test is their only behavioural check.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import DatapathAnalysis, range_of, total_of
from repro.egraph import EGraph, Runner
from repro.egraph.pattern import PatternNode
from repro.egraph.query import ARM, QueryPlan
from repro.egraph.runner import BackoffScheduler
from repro.intervals import IntervalSet
from repro.ir import ops
from repro.pipeline.budget import Budget
from repro.rewrites import compose_rules

from oracles import dynamic_rules
from oracles.dynamic_rules import dynamic, run_once


def _x(g, env):
    return (env["x"],)


def _pulled_old(g, env):
    outer, position = env["outer"], env["pos"]
    others = tuple(None if i == position else c for i, c in enumerate(outer.children))
    return (outer.op, outer.attrs, others, env["mux"].children)


def _pulled_new(g, env):
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


def _keep(g, env):
    return (env["keep"],)


def _kept(*names):
    """The class an arm keeps: ``names[i]`` for arm ``i``."""
    return lambda g, env: (env[names[env[ARM]]],)


def _values(*names):
    return lambda g, env: tuple(env[name] for name in names)


#: rule name -> (old dynamic rule, then the projections of an old and of a
#: new match onto what the right-hand side reads: the dynamic searchers
#: bound what their appliers needed, the patterns bind their variables).
PAIRS = {
    "abs-identity": (dynamic_rules.abs_identity_rule, _x, _x),
    "abs-negate": (dynamic_rules.abs_negate_rule, _x, _x),
    "trunc-elim": (dynamic_rules.trunc_elim_rule, _x, _x),
    "trunc-trunc": (
        dynamic_rules.trunc_trunc_rule,
        _values("a", "w"),
        lambda g, env: (env["a"], min(env["v"], env["w"])),
    ),
    "lzc-shl": (
        dynamic_rules.lzc_shl_rule,
        _values("a", "w2"),
        lambda g, env: (env["a"], env["w"] - env["s"]),
    ),
}

#: The same for the rules ported with arms, tails and derived attributes,
#: and for the last six (structural guards, an operator set, as-patterns).
WIDE_PAIRS = {
    "mux-pull": (dynamic_rules.mux_pull_rule, _pulled_old, _pulled_new),
    "mux-cond-const": (dynamic_rules.mux_cond_const_rule, _keep, _kept("t", "f")),
    "mul-pow2-shl": (
        dynamic_rules.mul_pow2_to_shl,
        _values("a", "k"),
        lambda g, env: (env["a"], env["v"].bit_length() - 1),
    ),
    "minmax-resolve": (dynamic_rules.minmax_resolve_rule, _keep, _kept("a", "b", "b", "a")),
    "assume-true-elim": (dynamic_rules.assume_true_elim_rule, _x, _x),
    "assume-merge-nested": (
        dynamic_rules.assume_merge_nested_rule,
        lambda g, env: (env["inner"].children[0], env["outer"], env["inner"].children[1:]),
        _values("x", "outer", "inner"),
    ),
    "lzc-narrow": (
        lambda: _without_negative_k(dynamic_rules.lzc_narrow_rule()),
        _values("x", "w", "k"),
        _values("x", "w", "k"),
    ),
    "mux-branch-assume": (
        dynamic_rules.mux_branch_assume_rule, _values("c", "t", "f"), _values("c", "t", "f"),
    ),
    "assume-distribute": (
        dynamic_rules.assume_distribute_rule,
        lambda g, env: (env["inner"].op, env["inner"].attrs, env["inner"].children,
                        env["constraints"]),
        lambda g, env: (*_op_and_attrs(g, env["strict"]), env["xs"], env["cs"]),
    ),
    "assume-mux-prune": (
        dynamic_rules.assume_mux_prune_rule,
        _values("keep", "constraints"),
        lambda g, env: (env[("t", "f")[env[ARM]]], env["cs"]),
    ),
    "lzc-width-reduce": (
        dynamic_rules.lzc_width_reduce_rule, _values("x", "w", "m"), _values("x", "w", "m"),
    ),
    "lzc-norm-invariant": (
        dynamic_rules.lzc_norm_invariant_rule, _values("a", "w"), _values("a", "w"),
    ),
    "case-split-shift-gt1": (dynamic_rules.split_sub_shift_rule, _values("c"), _values("c")),
}

#: Ports whose right-hand side the applier built in another order than
#: bottom-up (-> the class variables of their matches): the same graph, but
#: other ids for the new classes.  Where a matched class has an empty range
#: (a contradiction, such as a class holding two constants) the analysis
#: may fold the new nodes differently in either order, so those graphs are
#: not compared (see ``test_a_contradiction_can_fold_either_way``).
RENAMED = {"mux-branch-assume": "ctf", "lzc-width-reduce": "x"}


def _op_and_attrs(g, nid: int) -> tuple:
    """The operator and attributes of the node an operator set bound."""
    node = g.core.node_enode(nid)
    return node.op, node.attrs


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


def renamed_structure(g: EGraph) -> list:
    """:func:`structure` with each class named by its smallest term (by
    size, then by digest), not by its id.  In a rebuilt graph no two
    classes share a smallest term, so two graphs that differ only in class
    ids give the same list."""
    classes = {c.id: c.nodes for c in g.snapshot(data=False).classes}
    best: dict[int, tuple[int, str]] = {}

    def term(node):
        kids = [best.get(g.find(k)) for k in node.children]
        if None in kids:
            return None
        text = f"{node.op.name}{node.attrs}" + "".join(digest for _, digest in kids)
        return 1 + sum(size for size, _ in kids), hashlib.sha1(text.encode()).hexdigest()

    changed = True
    while changed:
        changed = False
        for cid, nodes in classes.items():
            for node in nodes:
                found = term(node)
                if found is not None and (cid not in best or found < best[cid]):
                    best[cid], changed = found, True
    name = {cid: best[cid][1] for cid in classes}
    return sorted(
        (name[cid], sorted(
            (n.op.name, n.attrs, tuple(name[g.find(k)] for k in n.children)) for n in nodes
        ))
        for cid, nodes in classes.items()
    )


def one_iteration(g: EGraph, rule, limit: int) -> dict:
    """The application counts of one iteration of ``rule`` on ``g``: an old
    rule through the reference driver, a port through the runner."""
    if isinstance(rule, dynamic_rules.Dynamic):
        return run_once(g, rule, limit)
    runner = Runner(
        g, [rule], scheduler=BackoffScheduler(match_limit=limit), budget=Budget(iters=1)
    )
    return runner.run().iterations[0].applied


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
            (cid, old_view(g, env))
            for cid, env in old_rule.search(g, g.nodes_by_op(), limit)
        ]
        new = [
            (cid, new_view(g, env))
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
        reports.append(one_iteration(g, rule, limit))
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
    st.tuples(st.integers(0, 14), *(st.integers(0, 99) for _ in range(3))),
    min_size=6,
    max_size=40,
)


def build_wide(plan: tuple) -> EGraph:
    """A clean analyzed graph over every operator the thirteen rules read;
    the same ``plan`` always builds the same graph, id for id."""
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
        elif kind == 10:
            shifted = g.add_node(ops.SHR, (), (b, c))
            ids.append(g.add_node(ops.SUB, (), (a, shifted)))
        elif kind == 11:
            # A normalization of a pre-shifted value: lzc-norm-invariant.
            pre = g.add_node(ops.SHL, (), (a, b if j % 2 else g.add_const(k % 4)))
            count = g.add_node(ops.LZC, (5 + k % 6,), (pre,))
            ids.append(g.add_node(ops.SHL, (), (pre, count)))
        elif kind == 12:
            # A mux under its own condition, or under its negation.
            mux = g.add_node(ops.MUX, (), (a, b, c))
            cond = a if k % 2 else g.add_node(ops.LNOT, (), (a,))
            ids.append(g.add_node(ops.ASSUME, (), (mux, cond) if j % 3 else (mux, cond, c)))
        elif kind == 13:
            # A mux whose true branch is already assumed under its condition.
            ids.append(g.add_node(ops.MUX, (), (a, g.add_node(ops.ASSUME, (), (b, a)), c)))
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
    if name == "case-split-shift-gt1":
        assume(not _two_shr_members(g))  # pinned separately below
    plan_search = QueryPlan([declarative(name)])
    for limit in LIMITS:
        old = [
            (cid, old_view(g, env))
            for cid, env in old_rule.search(g, g.nodes_by_op(), limit)
        ]
        new = [
            (cid, new_view(g, env))
            for cid, env in plan_search.search(g, {0: limit})[0]
        ]
        assert new == old, limit


@settings(max_examples=100, deadline=None)
@given(plan=st.tuples(ranges, ranges, wide_steps), limit=st.sampled_from(LIMITS))
@pytest.mark.parametrize("name", sorted(WIDE_PAIRS))
def test_ported_rules_leave_the_same_graph_after_one_iteration(name, plan, limit):
    if name == "case-split-shift-gt1":
        assume(not _two_shr_members(build_wide(plan)))
    shape = renamed_structure if name in RENAMED else structure
    if name in RENAMED and _matches_a_contradiction(build_wide(plan), name):
        return
    graphs, reports = [], []
    for rule in (WIDE_PAIRS[name][0](), declarative(name)):
        g = build_wide(plan)
        reports.append(one_iteration(g, rule, limit))
        graphs.append((g.version, g.node_count, g.class_count, shape(g)))
    assert reports[1] == reports[0]
    assert graphs[1] == graphs[0]


def _matches_a_contradiction(g: EGraph, name: str) -> bool:
    """Does a match of the port bind a class whose range is empty?"""
    found = QueryPlan([declarative(name)]).search(g, {0: max(LIMITS)})[0]
    return any(range_of(g, env[var]).is_empty for _, env in found for var in RENAMED[name])


def _two_shr_members(g: EGraph) -> bool:
    """Does some SUB's subtrahend class hold two SHR members (where the old
    case split matched only the first)?"""
    subs = g.nodes_by_op().get(ops.SUB, ())
    return any(len(g.members(node.children[1], ops.SHR)) > 1 for _, node in subs)


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
    (9, 0, 0, 2),    # LZC_5(x), x in [2, 7] -> lzc-narrow, lzc-width-reduce
    (3, 11, 2, 0),   # ASSUME(ADD(x, y), c) -> assume-distribute
    (12, 2, 1, 1),   # ASSUME(MUX(c, y, y), c) -> assume-mux-prune, arm 0
    (12, 2, 1, 0),   # ASSUME(MUX(c, y, x), !c) -> assume-mux-prune, arm 1
    (11, 0, 0, 1),   # (x << 1) << LZC_6(x << 1) -> lzc-norm-invariant
    (10, 0, 1, 2),   # x - (y >> c)         -> case-split-shift-gt1
])


def test_the_wide_generator_reaches_every_ported_rule():
    """The fixed plan above matches all thirteen rules (``MUX(c, x, y)``
    also gives ``mux-branch-assume`` its match), so the property tests are
    not vacuous for any of them; ``mul-pow2-shl`` matches both operands of
    a product of two powers of two, and ``assume-mux-prune`` fires both
    arms."""
    g = build_wide(WIDE_PLAN)
    for name in WIDE_PAIRS:
        found = QueryPlan([declarative(name)]).search(g, {0: 100})[0]
        assert found, name
    both = [
        env[ARM] for _, env in QueryPlan([declarative("mul-pow2-shl")]).search(g, {0: 100})[0]
    ]
    assert both.count(0) >= 1 and both.count(1) >= 2
    pruned = [
        env[ARM] for _, env in QueryPlan([declarative("assume-mux-prune")]).search(g, {0: 100})[0]
    ]
    assert sorted(set(pruned)) == [0, 1]


def test_prune_arms_follow_member_order():
    """An ASSUME over a class with two MUX members, the first pruned by
    the negation of its condition (arm 1), the second by its condition
    itself (arm 0): both arms share one walk of the members, so the matches
    come in member order, as the old searcher yielded them."""
    g = EGraph([DatapathAnalysis()])
    a, b, c, d, p, q = (g.add_node(ops.VAR, (name, 4)) for name in "abcdpq")
    first, second = g.add_node(ops.MUX, (), (p, a, b)), g.add_node(ops.MUX, (), (q, c, d))
    g.union(first, second)
    g.add_node(ops.ASSUME, (), (first, g.add_node(ops.LNOT, (), (p,)), q))
    g.rebuild()
    [(_, node)] = g.nodes_by_op()[ops.ASSUME]
    assert [m.children[0] for m in g.members(node.children[0], ops.MUX)] == [p, q]
    old = dynamic_rules.assume_mux_prune_rule().search(g, g.nodes_by_op(), 100)
    new = QueryPlan([declarative("assume-mux-prune")]).search(g, {0: 100})[0]
    assert [env["keep"] for _, env in old] == [b, c]
    assert [(env[ARM], env[("t", "f")[env[ARM]]]) for _, env in new] == [(1, b), (0, c)]


def test_distribute_walks_members_in_member_order():
    """An ASSUME over a class whose strict members are a SUB and then an
    ADD (ADD's op id is the smaller): the operator set visits them in
    member order, as the old searcher did, not op by op."""
    g = EGraph([DatapathAnalysis()])
    x, y, c = (g.add_node(ops.VAR, (name, 4)) for name in "xyc")
    g.add_node(ops.ADD, (), (y, x))
    diff, total = g.add_node(ops.SUB, (), (x, y)), g.add_node(ops.ADD, (), (x, y))
    g.union(diff, total)
    g.add_node(ops.ASSUME, (), (diff, c))
    g.rebuild()
    old = dynamic_rules.assume_distribute_rule().search(g, g.nodes_by_op(), 100)
    new = QueryPlan([declarative("assume-distribute")]).search(g, {0: 100})[0]
    assert [env["inner"].op for _, env in old] == [ops.SUB, ops.ADD]
    assert [_op_and_attrs(g, env["strict"])[0] for _, env in new] == [ops.SUB, ops.ADD]


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
        run_once(build_wide(plan), dynamic_rules.lzc_narrow_rule(), 100)
    report = Runner(build_wide(plan), [declarative("lzc-narrow")], budget=Budget(iters=1)).run()
    assert report.iterations[0].applied == {}


@pytest.mark.parametrize("name, plan", [
    ("lzc-width-reduce", ((2, 5), (0, 0), [(9, 0, 0, 5)])),  # LZC_8(x), x in [2, 7]
    ("mux-branch-assume", ((2, 5), (0, 0), [(2, 2, 0, 1)])),  # MUX(c, x, y)
])
def test_bottom_up_builds_give_other_class_ids(name, plan):
    """Both forms find the same match, and the graphs after one iteration
    are the same up to class ids: ``lzc-width-reduce``'s applier added
    ``LZC_3(x)`` before the constant 5, and ``mux-branch-assume``'s added
    ``LNOT(c)`` before ``ASSUME(x, c)``; a bottom-up build goes the other
    way round, so the new classes swap ids."""
    old, new = WIDE_PAIRS[name][0](), declarative(name)
    g = build_wide(plan)
    assert [cid for cid, _ in old.search(g, g.nodes_by_op(), 100)] == [
        cid for cid, _ in QueryPlan([new]).search(g, {0: 100})[0]
    ]
    graphs = []
    for rule in (old, new):
        g = build_wide(plan)
        assert one_iteration(g, rule, 100) == {name: 1}
        graphs.append(g)
    assert structure(graphs[0]) != structure(graphs[1])
    assert renamed_structure(graphs[0]) == renamed_structure(graphs[1])


def test_a_contradiction_can_fold_either_way():
    """``(mux(p, x, -1) < 4) ? 8 : c`` where ``p`` is the class holding 16
    and 6, whose range is empty: after the bottom-up build of its
    branch-assumed copy, the analysis folds the mux into the class of 8;
    after the old applier's build (``LNOT`` first) it stays a class of its
    own.  Both graphs follow from the contradiction ``16 == 6``; no
    registry design holds one where the rule matches (the golden and trace
    pins pass unchanged)."""
    plan = ((5, 1), (4, 11), [
        (3, 50, 18, 93), (0, 98, 23, 25), (2, 88, 52, 42), (5, 58, 77, 36),
        (6, 63, 0, 84), (7, 16, 47, 8), (9, 65, 59, 28), (2, 0, 59, 79),
        (6, 54, 88, 75), (5, 23, 24, 44), (8, 82, 84, 94),
    ])
    assert _matches_a_contradiction(build_wide(plan), "mux-branch-assume")
    counts = []
    for rule in (dynamic_rules.mux_branch_assume_rule(), declarative("mux-branch-assume")):
        g = build_wide(plan)
        assert one_iteration(g, rule, 100) == {"mux-branch-assume": 3}
        counts.append((g.node_count, g.class_count))
    assert counts == [(41, 33), (41, 32)]


def test_case_split_matches_every_shr_member():
    """``x - (y >> c)`` with ``y >> c`` and ``y >> 2`` in one class: the old
    rule split on the first SHR member's shift only; the port splits on
    each, in member order, the first split being the old one."""
    plan = ((2, 5), (0, 0), [
        (10, 0, 1, 2),   # x - (y >> c), the SHR class is ids[12]
        (0, 1, 6, 4),    # y >> 2
        (14, 12, 13, 0), # union the two SHR classes
    ])
    g = build_wide(plan)
    assert _two_shr_members(g)
    old = dynamic_rules.split_sub_shift_rule().search(g, g.nodes_by_op(), 100)
    new = QueryPlan([declarative("case-split-shift-gt1")]).search(g, {0: 100})[0]
    [(_, sub)] = g.nodes_by_op()[ops.SUB]
    members = [node.children[1] for node in g.members(sub.children[1], ops.SHR)]
    old, new = ([env["c"] for _, env in found] for found in (old, new))
    assert old == members[:1] and new == members
    report = Runner(g, [declarative("case-split-shift-gt1")], budget=Budget(iters=1)).run()
    assert report.iterations[0].applied == {"case-split-shift-gt1": 2}


@pytest.mark.parametrize("x_span, matches", [(5, 1), (6, 0)])
def test_lzc_norm_invariant_needs_the_shifted_value_below_two_to_the_width(x_span, matches):
    """``(x << 2) << LZC_5(x << 2)``: with ``x`` in ``[2, 7]`` the shifted
    value stays below ``2^5`` and both rules match; with ``x`` up to 8 it
    reaches ``2^5`` and neither does."""
    g = build_wide(((2, x_span), (0, 0), [(11, 0, 0, 6)]))
    old = dynamic_rules.lzc_norm_invariant_rule().search(g, g.nodes_by_op(), 100)
    new = QueryPlan([declarative("lzc-norm-invariant")]).search(g, {0: 100})[0]
    assert len(old) == len(new) == matches


def test_lzc_norm_invariant_applies_as_before():
    """No registry design fires ``lzc-norm-invariant``: on ``(x << 1) <<
    LZC_6(x << 1)`` with ``x`` in ``[2, 7]`` the port applies once, as the
    old rule did, and leaves the same graph, in which the normalization is
    ``x << LZC_6(x)``."""
    plan = ((2, 5), (0, 0), [(11, 0, 0, 1)])
    graphs = []
    for rule in (dynamic_rules.lzc_norm_invariant_rule(), declarative("lzc-norm-invariant")):
        g = build_wide(plan)
        assert one_iteration(g, rule, 100) == {"lzc-norm-invariant": 1}
        graphs.append(structure(g))
    assert graphs[0] == graphs[1]
    lookup = g.core.lookup
    x = g.find(0)
    pre = lookup(ops.SHL, (), (x, lookup(ops.CONST, (1,), ())))
    outer = lookup(ops.SHL, (), (pre, lookup(ops.LZC, (6,), (pre,))))
    assert outer == lookup(ops.SHL, (), (x, lookup(ops.LZC, (6,), (x,))))
