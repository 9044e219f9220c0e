"""Case-split introduction (Section V).

The paper's tool seeds the near/far-path split of the floating-point
subtractor with one rewrite::

    a - (b >> c)  ->  (c > 1) ? (a - (b >> c)) : (a - (b >> c))

Both branches start as the *same* e-class; the split only becomes useful
once Table I wraps each branch in its branch-condition ASSUME and the
constraint-aware rules specialize the two copies.  The rewrite is idempotent
by hashconsing (re-applying it builds the identical mux e-node).  It is a
declarative rule: the as-pattern ``?e@`` names the matched class, so both
branches are that class.

``case_split_on`` exposes the paper's "interactive" future-work idea: split
any class on an arbitrary designer-provided condition.
"""

from __future__ import annotations

from repro.egraph.egraph import EGraph
from repro.egraph.enode import ENode
from repro.egraph.rewrite import Rewrite
from repro.ir import ops
from repro.ir.expr import Expr
from repro.rewrites.soundness import drule


def casesplit_rules(threshold: int = 1) -> list[Rewrite]:
    """The shift-magnitude case split used by the FP-subtract case study."""
    return [split_sub_shift_rule(threshold)]


def split_sub_shift_rule(threshold: int = 1) -> Rewrite:
    """``a - (b >> c) -> (c > T) ? same : same`` (T = ``threshold``), once
    per ``SHR`` member of the subtrahend's class."""
    return drule(
        f"case-split-shift-gt{threshold}",
        "?e@(- ?a (>> ?b ?c))",
        f"(mux (> ?c {int(threshold)}) ?e ?e)",
    )


def case_split_on(egraph: EGraph, class_id: int, condition: Expr) -> int:
    """Split ``class_id`` on an arbitrary condition expression.

    Inserts ``cond ? x : x`` into the class, giving the ASSUME machinery a
    branch pair to specialize — the designer-guided usage the paper proposes
    as future work.  Returns the condition's class id.
    """
    cond_id = egraph.add_expr(condition)
    root = egraph.find(class_id)
    mux_id = egraph.add_enode(ENode(ops.MUX, (), (cond_id, root, root)))
    egraph.union(root, mux_id)
    egraph.rebuild()
    return cond_id
