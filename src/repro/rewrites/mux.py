"""Mux algebra: condition splitting (eqs. (6)/(7)), propagation, pruning.

``mux-pull`` is the paper's "mux propagation" — ``a op (b ? c : d) ->
b ? (a op c) : (a op d)`` — implemented dynamically for every strict
operator and child position, so an introduced case split migrates to the
output where Table I's branch-ASSUME rule can take over (Section V).

``mux-cond-const`` is the Section VI dead-code rule: ``c ? a : b -> b`` when
the analysis proves ``A[[c]] == [0, 0]`` (and symmetrically for always-true).
"""

from __future__ import annotations

from repro.analysis import range_of, total_of
from repro.egraph.egraph import EGraph
from repro.egraph.enode import ENode
from repro.egraph.rewrite import Rewrite, dynamic
from repro.ir import ops
from repro.rewrites.soundness import boolean, drule, total

#: Strict operators through which a mux may be pulled upward.
_PULLABLE = (
    ops.ADD, ops.SUB, ops.MUL, ops.NEG, ops.SHL, ops.SHR,
    ops.AND, ops.OR, ops.XOR, ops.NOT, ops.LNOT,
    ops.LT, ops.LE, ops.GT, ops.GE, ops.EQ, ops.NE,
    ops.LZC, ops.TRUNC, ops.SLICE, ops.CONCAT, ops.ABS, ops.MIN, ops.MAX,
)


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

    def search(egraph: EGraph, index: dict):
        for op in _PULLABLE:
            for class_id, enode in index.get(op, ()):
                for position, child in enumerate(enode.children):
                    child_root = egraph.find(child)
                    for inner in egraph.members(child_root, ops.MUX):
                        yield (
                            egraph.find(class_id),
                            {"outer": enode, "pos": position, "mux": inner},
                        )

    def apply(egraph: EGraph, env: dict, class_id: int):
        outer: ENode = env["outer"]
        position: int = env["pos"]
        inner: ENode = env["mux"]
        cond, if_true, if_false = inner.children
        # Pulling a mux through a strict op requires the *other* operands to
        # stay put; the condition hoists above the op, which is sound because
        # the op is strict and evaluates identically on both branch copies.
        kids_t = list(outer.children)
        kids_t[position] = if_true
        kids_f = list(outer.children)
        kids_f[position] = if_false
        on_true = egraph.add_node(outer.op, outer.attrs, tuple(kids_t))
        on_false = egraph.add_node(outer.op, outer.attrs, tuple(kids_f))
        return egraph.add_node(ops.MUX, (), (cond, on_true, on_false))

    return dynamic("mux-pull", search, apply)


def mux_cond_const_rule() -> Rewrite:
    """Prune a mux whose condition the analysis proves constant (Sec. VI)."""

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.MUX, ()):
            cond, if_true, if_false = enode.children
            if not total_of(egraph, cond):
                continue
            verdict = range_of(egraph, cond).truthiness()
            if verdict is True:
                yield egraph.find(class_id), {"keep": if_true}
            elif verdict is False:
                yield egraph.find(class_id), {"keep": if_false}

    def apply(egraph: EGraph, env: dict, class_id: int):
        return egraph.find(env["keep"])

    return dynamic("mux-cond-const", search, apply)
