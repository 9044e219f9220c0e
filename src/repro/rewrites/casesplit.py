"""Case-split introduction (Section V).

The paper's tool seeds the near/far-path split of the floating-point
subtractor with one rewrite::

    a - (b >> c)  ->  (c > 1) ? (a - (b >> c)) : (a - (b >> c))

Both branches start as the *same* e-class; the split only becomes useful
once Table I wraps each branch in its branch-condition ASSUME and the
constraint-aware rules specialize the two copies.  The rewrite is idempotent
by hashconsing (re-applying it builds the identical mux e-node).

``case_split_on`` exposes the paper's "interactive" future-work idea: split
any class on an arbitrary designer-provided condition.
"""

from __future__ import annotations

from repro.egraph.egraph import EGraph
from repro.egraph.enode import ENode
from repro.egraph.rewrite import Rewrite, dynamic
from repro.ir import ops
from repro.ir.expr import Expr


def casesplit_rules(threshold: int = 1) -> list[Rewrite]:
    """The shift-magnitude case split used by the FP-subtract case study."""
    return [split_sub_shift_rule(threshold)]


def split_sub_shift_rule(threshold: int = 1) -> Rewrite:
    """``a - (b >> c) -> (c > T) ? same : same`` (T = ``threshold``)."""

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.SUB, ()):
            rhs = egraph.find(enode.children[1])
            for inner in egraph.members(rhs, ops.SHR):
                shift_amount = egraph.find(inner.children[1])
                yield egraph.find(class_id), {"c": shift_amount}
                break

    def apply(egraph: EGraph, env: dict, class_id: int):
        limit = egraph.add_const(threshold)
        cond = egraph.add_node(ops.GT, (), (egraph.find(env["c"]), limit))
        return egraph.add_node(ops.MUX, (), (cond, class_id, class_id))

    return dynamic(f"case-split-shift-gt{threshold}", search, apply)


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
