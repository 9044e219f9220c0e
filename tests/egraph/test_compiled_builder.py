"""Differential test: compiled right-hand-side builders vs ``instantiate``.

Two identical flat-core graphs carrying the datapath analysis build the same
random right-hand side under the same environment — one through the
interpreted :func:`~oracles.ematch.instantiate`, the other through
:func:`~repro.egraph.query.compile_builder`.  The patterns mix attribute
variables, CONST leaves, repeated variables, ASSUME heads and children whose
analysis ``modify`` constant-folds and unions classes mid-build (``(* ?x 0)``
folds to the literal 0 and absorbs its class).  Every observable must agree:
the returned class id, node and class counts, ``version``, the hashcons, the
union-find and the analysis data.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import DatapathAnalysis
from repro.egraph import EGraph
from repro.egraph.pattern import AttrExpr, AttrVar, PatternNode, PatternVar
from repro.egraph.query import compile_builder
from repro.intervals import IntervalSet
from repro.ir import ops

from oracles.ematch import instantiate

CLASS_VARS = ("a", "b", "z", "k")
BINARY = (ops.ADD, ops.SUB, ops.MUL, ops.AND, ops.SHL, ops.LT, ops.EQ, ops.MAX)


def _const(value: int) -> PatternNode:
    return PatternNode(ops.CONST, (value,), ())


leaves = st.one_of(
    st.sampled_from(CLASS_VARS).map(PatternVar),
    st.integers(0, 3).map(_const),
)


def _extend(children):
    binary = st.tuples(st.sampled_from(BINARY), children, children).map(
        lambda t: PatternNode(t[0], (), (t[1], t[2]))
    )
    folding = children.map(lambda c: PatternNode(ops.MUL, (), (c, _const(0))))
    width_op = st.tuples(
        st.sampled_from((ops.LZC, ops.TRUNC, ops.NOT)),
        st.sampled_from((
            AttrVar("w"), 4, 8,
            AttrExpr("min", (AttrVar("w"), 6)),
            AttrExpr("-", (AttrVar("w"), AttrVar("lo"))),
        )),
        children,
    ).map(lambda t: PatternNode(t[0], (t[1],), (t[2],)))
    sliced = st.tuples(st.sampled_from((AttrVar("w"), 5)), children).map(
        lambda t: PatternNode(ops.SLICE, (t[0], AttrVar("lo")), (t[1],))
    )
    assume = st.lists(children, min_size=1, max_size=4).map(
        lambda kids: PatternNode(ops.ASSUME, (), tuple(kids))
    )
    mux = st.tuples(children, children, children).map(
        lambda t: PatternNode(ops.MUX, (), t)
    )
    return st.one_of(binary, folding, width_op, sliced, assume, mux)


rhs_patterns = st.recursive(leaves, _extend, max_leaves=8).filter(
    lambda p: isinstance(p, PatternNode)
)


def _graph(stale: bool):
    """A small analysed graph and an env over it; ``stale`` leaves unions
    pending so some env ids are no longer canonical."""
    ranges = {"x": IntervalSet.of(0, 200), "y": IntervalSet.of(3, 3)}
    g = EGraph([DatapathAnalysis(ranges)])
    x = g.add_node(ops.VAR, ("x", 8))
    y = g.add_node(ops.VAR, ("y", 8))
    zero = g.add_const(0)
    s = g.add_node(ops.ADD, (), (x, y))
    k = g.add_node(ops.ASSUME, (), (x, g.add_node(ops.LT, (), (x, s))))
    g.rebuild()
    if stale:
        g.union(s, g.add_node(ops.ADD, (), (y, x)))
        g.union(x, g.add_node(ops.MAX, (), (x, x)))
    env = {"a": x, "b": s, "z": zero, "k": k, "w": 8, "lo": 1}
    return g, env


def _observables(g: EGraph) -> tuple:
    core = g.core
    return (
        core.n_nodes,
        core.n_classes,
        core.version,
        dict(core.memo),
        list(core.uf._parent),
        list(core.class_data),
        list(core.ops),
        list(core.attrs),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(rhs_patterns, min_size=1, max_size=3), st.booleans())
def test_builder_matches_instantiate(patterns, stale):
    interpreted, env = _graph(stale)
    compiled, env2 = _graph(stale)
    assert env == env2
    for pattern in patterns:
        build = compile_builder(pattern)
        want = instantiate(interpreted, pattern, dict(env))
        got = build(compiled.core, dict(env))
        assert got == want, pattern
        assert _observables(compiled) == _observables(interpreted), pattern
    interpreted.rebuild()
    compiled.rebuild()
    assert _observables(compiled) == _observables(interpreted)
    compiled.check_invariants()


def test_mid_build_fold_unions_an_earlier_sibling():
    """``(+ ?z (* ?a 0))``: the MUL child folds to 0 and its class absorbs
    the literal-0 class ``?z`` was read from, so the ADD must be probed with
    the re-canonicalized sibling — exactly as ``core.add`` would."""
    pattern = PatternNode(
        ops.ADD, (), (PatternVar("z"), PatternNode(ops.MUL, (), (PatternVar("a"), _const(0))))
    )
    interpreted, env = _graph(False)
    compiled, _ = _graph(False)
    zero = env["z"]
    got = compile_builder(pattern)(compiled.core, dict(env))
    assert compiled.find(zero) != zero  # the fold absorbed ?z's class
    assert got == instantiate(interpreted, pattern, dict(env))
    assert _observables(compiled) == _observables(interpreted)


def test_bare_variable_rhs_returns_the_canonical_class():
    g, env = _graph(True)
    assert compile_builder(PatternVar("b"))(g.core, env) == g.find(env["b"])
