"""Table I: creation, propagation and simplification of ASSUME nodes.

==============================================  =================================================
Left-hand side                                  Right-hand side
==============================================  =================================================
``a ? b : c``                                   ``a ? ASSUME(b, a) : ASSUME(c, ~a)``
``ASSUME((a op b), c)``                         ``ASSUME(a, c) op ASSUME(b, c)``
``ASSUME(ASSUME(a, b), c)``                     ``ASSUME(a, b ∪ c)``
``ASSUME((a ? b : c), a)``                      ``ASSUME(b, a)``
``ASSUME((a ? b : c), ~a)``                     ``ASSUME(c, ~a)``
==============================================  =================================================

Row 3 is declarative (a constraint tail ``?cs...`` binds an ASSUME's
constraint set).  Rows 1, 2 and 4/5 stay dynamic: row 1 needs a negative
guard, row 2 rebuilds whichever strict operator it finds, and rows 4/5
look up a constraint's negation in the graph.

One extra rule, ``assume-true-elim``, discharges an ASSUME whose constraints
the analysis proves always hold — the degenerate case where a sub-domain
equivalence is a whole-domain one.  It is declarative: its guards quantify
over the constraint tail.
"""

from __future__ import annotations

from repro.egraph.egraph import EGraph
from repro.egraph.enode import ENode
from repro.egraph.rewrite import Rewrite, dynamic
from repro.ir import ops
from repro.rewrites.soundness import drule, total, truthy

#: Rule 2 of Table I distributes over the strict operators; MUX has the
#: dedicated rules 4/5.
_DISTRIBUTES = frozenset(ops.STRICT)


def assume_rules() -> list[Rewrite]:
    """The full Table I rule set plus ``assume-true-elim``."""
    return [
        mux_branch_assume_rule(),
        assume_distribute_rule(),
        assume_merge_nested_rule(),
        assume_mux_prune_rule(),
        assume_true_elim_rule(),
    ]


def mux_branch_assume_rule() -> Rewrite:
    """Row 1: wrap each mux branch in an ASSUME of its branch condition."""

    def _already_assumed(egraph: EGraph, branch: int, cond: int) -> bool:
        """Is this branch already an ASSUME carrying this condition?"""
        for node in egraph.members(branch, ops.ASSUME):
            if cond in (egraph.find(c) for c in node.children[1:]):
                return True
        return False

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.MUX, ()):
            cond, if_true, if_false = (egraph.find(c) for c in enode.children)
            # Idempotence: never wrap a branch that is already assumed under
            # this condition (prevents ASSUME(ASSUME(...)) towers).
            if _already_assumed(egraph, if_true, cond):
                continue
            yield egraph.find(class_id), {"c": cond, "t": if_true, "f": if_false}

    def apply(egraph: EGraph, env: dict, class_id: int):
        cond = egraph.find(env["c"])
        not_cond = egraph.add_node(ops.LNOT, (), (cond,))
        assumed_t = egraph.add_node(ops.ASSUME, (), (egraph.find(env["t"]), cond))
        assumed_f = egraph.add_node(ops.ASSUME, (), (egraph.find(env["f"]), not_cond))
        return egraph.add_node(ops.MUX, (), (cond, assumed_t, assumed_f))

    return dynamic("mux-branch-assume", search, apply)


def assume_distribute_rule() -> Rewrite:
    """Row 2: push an ASSUME through any strict operator toward the inputs."""

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.ASSUME, ()):
            guarded = egraph.find(enode.children[0])
            constraints = tuple(egraph.find(c) for c in enode.children[1:])
            for inner in egraph.members(guarded, _DISTRIBUTES):
                if inner.children:
                    yield egraph.find(class_id), {
                        "inner": inner,
                        "constraints": constraints,
                    }

    def apply(egraph: EGraph, env: dict, class_id: int):
        inner: ENode = env["inner"]
        constraints: tuple[int, ...] = env["constraints"]
        assumed_kids = tuple(
            egraph.add_node(ops.ASSUME, (), (egraph.find(k),) + constraints)
            for k in inner.children
        )
        return egraph.add_node(inner.op, inner.attrs, assumed_kids)

    return dynamic("assume-distribute", search, apply)


def assume_merge_nested_rule() -> Rewrite:
    """Row 3: collapse nested ASSUMEs, uniting their constraint sets."""
    lhs = "(assume (assume ?x ?inner...) ?outer...)"
    return drule("assume-merge-nested", lhs, "(assume ?x ?outer... ?inner...)")


def assume_mux_prune_rule() -> Rewrite:
    """Rows 4/5: under its own branch condition, a mux is just that branch."""

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.ASSUME, ()):
            guarded = egraph.find(enode.children[0])
            constraints = tuple(egraph.find(c) for c in enode.children[1:])
            constraint_set = set(constraints)
            for inner in egraph.members(guarded, ops.MUX):
                cond, if_true, if_false = (egraph.find(c) for c in inner.children)
                if cond in constraint_set:
                    yield egraph.find(class_id), {
                        "keep": if_true, "constraints": constraints,
                    }
                    continue
                # Is some constraint class the logical negation of cond?
                negated = egraph.lookup(ENode(ops.LNOT, (), (cond,)))
                if negated is not None and egraph.find(negated) in constraint_set:
                    yield egraph.find(class_id), {
                        "keep": if_false, "constraints": constraints,
                    }

    def apply(egraph: EGraph, env: dict, class_id: int):
        return egraph.add_node(
            ops.ASSUME, (), (egraph.find(env["keep"]),) + env["constraints"]
        )

    return dynamic("assume-mux-prune", search, apply)


def assume_true_elim_rule() -> Rewrite:
    """``ASSUME(x, C) -> x`` when every constraint provably always holds."""
    guards = (truthy("cs"), total("cs"))
    return drule("assume-true-elim", "(assume ?x ?cs...)", "?x", guards=guards)
