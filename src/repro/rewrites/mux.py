"""Mux algebra: condition splitting (eqs. (6)/(7)), propagation, pruning.

``mux-pull`` is the paper's "mux propagation" — ``a op (b ? c : d) ->
b ? (a op c) : (a op d)`` — one rule with an arm for every strict operator
and child position (41 arms, tried in that order on each node), so an
introduced case split migrates to the output where Table I's
branch-ASSUME rule can take over (Section V).

``mux-cond-const`` is the Section VI dead-code rule: ``c ? a : b -> b`` when
the analysis proves ``A[[c]] == [0, 0]`` (and symmetrically for always-true).
"""

from __future__ import annotations

from repro.egraph.pattern import AttrVar, PatternNode, PatternVar
from repro.egraph.rewrite import Arm, Rewrite
from repro.ir import ops
from repro.ir.ops import Op
from repro.rewrites.soundness import boolean, darm, drule, falsy, total, truthy


def mux_rules() -> list[Rewrite]:
    """Structural mux rules (no analysis needed beyond guards)."""
    return [
        drule("mux-same", "(mux ?c ?a ?a)", "?a"),
        # An unselected branch is never evaluated: dropping it needs no
        # totality proof (hence ``unguarded``).
        drule("mux-true", "(mux 1 ?a ?b)", "?a", unguarded=("b",)),
        drule("mux-false", "(mux 0 ?a ?b)", "?b", unguarded=("a",)),
        drule("mux-not", "(mux (lnot ?c) ?a ?b)", "(mux ?c ?b ?a)"),
        # eq. (6): (a && b) ? c : d  ->  a ? (b ? c : d) : d
        drule(
            "mux-and-split",
            "(mux (& ?a ?b) ?c ?d)",
            "(mux ?a (mux ?b ?c ?d) ?d)",
            boolean("a", "b"),
            total("b"),
        ),
        # eq. (7): (a || b) ? c : d  ->  a ? c : (b ? c : d)
        drule(
            "mux-or-split",
            "(mux (| ?a ?b) ?c ?d)",
            "(mux ?a ?c (mux ?b ?c ?d))",
            boolean("a", "b"),
            total("b"),
        ),
    ]


def mux_pull_rule() -> Rewrite:
    """Pull a mux from any operand position up through a strict operator."""
    arms = (_pull_arm(op, position) for op in ops.STRICT for position in range(op.arity))
    return Rewrite("mux-pull", tuple(arms))


def _pull_arm(op: Op, position: int) -> Arm:
    """``(op .. (mux ?c ?t ?f) ..) -> (mux ?c (op .. ?t ..) (op .. ?f ..))``
    with the mux at ``position``; the other operands stay put (``?o<i>``)."""
    attrs = tuple(AttrVar(name) for name in op.attr_names)

    def with_operand(operand) -> PatternNode:
        kids = [PatternVar(f"o{i}") for i in range(op.arity)]
        kids[position] = operand
        return PatternNode(op, attrs, tuple(kids))

    c, t, f = PatternVar("c"), PatternVar("t"), PatternVar("f")
    return darm(
        with_operand(PatternNode(ops.MUX, (), (c, t, f))),
        PatternNode(ops.MUX, (), (c, with_operand(t), with_operand(f))),
    )


def mux_cond_const_rule() -> Rewrite:
    """Prune a mux whose condition the analysis proves constant (Sec. VI)."""
    return Rewrite("mux-cond-const", (
        darm("(mux ?c ?t ?f)", "?t", unguarded=("f",), guards=(truthy("c"), total("c"))),
        darm("(mux ?c ?t ?f)", "?f", unguarded=("t",), guards=(falsy("c"), total("c"))),
    ))
