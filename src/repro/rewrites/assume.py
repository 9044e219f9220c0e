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

Every row is a declarative rule.  Row 1 carries a guard that reads the
graph's structure (the branch is not already assumed under the
condition), row 2 matches any strict operator in member order and
rebuilds the one it found, row 3 unites constraint tails (``?cs...``), and
rows 4/5 are two arms that look the condition, or its existing negation,
up in the constraint tail.

One extra rule, ``assume-true-elim``, discharges an ASSUME whose constraints
the analysis proves always hold — the degenerate case where a sub-domain
equivalence is a whole-domain one.  It is declarative: its guards quantify
over the constraint tail.
"""

from __future__ import annotations

from repro.egraph.rewrite import Rewrite
from repro.rewrites.soundness import among, darm, drule, total, truthy, unassumed, unless


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
    """Row 1: wrap each mux branch in an ASSUME of its branch condition.
    Never a branch already assumed under this condition (no
    ``ASSUME(ASSUME(...))`` towers)."""
    return drule(
        "mux-branch-assume",
        "(mux ?c ?t ?f)",
        "(mux ?c (assume ?t ?c) (assume ?f (lnot ?c)))",
        guards=(unassumed("t", "c"),),
    )


def assume_distribute_rule() -> Rewrite:
    """Row 2: push an ASSUME through any strict operator toward the inputs."""
    return drule(
        "assume-distribute",
        "(assume (strict ?xs...) ?cs...)",
        "(strict ?xs... (assume ?xs ?cs...))",
    )


def assume_merge_nested_rule() -> Rewrite:
    """Row 3: collapse nested ASSUMEs, uniting their constraint sets."""
    lhs = "(assume (assume ?x ?inner...) ?outer...)"
    return drule("assume-merge-nested", lhs, "(assume ?x ?outer... ?inner...)")


def assume_mux_prune_rule() -> Rewrite:
    """Rows 4/5: under its own branch condition, a mux is just that branch.
    The condition itself keeps the true branch; else its negation, when
    the graph has one, keeps the false branch.  The dropped condition is
    in the kept constraint tail, so it needs no totality guard."""
    lhs = "(assume (mux ?c ?t ?f) ?cs...)"
    on_true = among("?c", "cs")
    return Rewrite("assume-mux-prune", (
        darm(lhs, "(assume ?t ?cs...)", unguarded=("c", "f"), guards=(on_true,)),
        darm(
            lhs, "(assume ?f ?cs...)", unguarded=("c", "t"),
            guards=(unless(on_true), among("(lnot ?c)", "cs")),
        ),
    ))


def assume_true_elim_rule() -> Rewrite:
    """``ASSUME(x, C) -> x`` when every constraint provably always holds."""
    guards = (truthy("cs"), total("cs"))
    return drule("assume-true-elim", "(assume ?x ?cs...)", "?x", guards=guards)
