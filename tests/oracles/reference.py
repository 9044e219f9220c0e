"""Plain reference versions of saturation, extraction and tree costing.

:func:`saturate` is equality saturation in its plainest form — match every
rule with :func:`~oracles.ematch.ematch` (keeping the matches its
search-time guards accept), build every right-hand side
with :func:`~oracles.ematch.instantiate`, rebuild, repeat until the
graph stops changing — and :func:`ast_size_costs` is egg's ``AstSize``
bottom-up fixpoint over ``EClass.nodes``.  Both run on any graph with the
object protocol, in particular :class:`oracles.legacy.LegacyEGraph`.
:func:`egraph_model_cost` prices a tree through a throwaway e-graph, the
reference for :func:`repro.synth.treecost.model_cost`.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

from repro.analysis import DatapathAnalysis
from repro.egraph import EGraph, Extractor
from repro.intervals import IntervalSet
from repro.ir import ops
from repro.ir.expr import Expr
from repro.synth.cost import DelayArea, DelayAreaCost

from oracles.ematch import ematch, instantiate


def saturate(egraph, rules, max_iters: int = 100) -> int:
    """Apply every rule at every match until a fixpoint; returns the number
    of iterations.  Only for rule sets that saturate finitely.  A rule's
    arms are matched one after the other, each with its own guards,
    conditions and right-hand side."""
    egraph.rebuild()
    for iteration in range(max_iters):
        before = egraph.version
        index = egraph.nodes_by_op()
        found = [
            (arm, [
                (class_id, env)
                for class_id, env in ematch(egraph, arm.lhs, index)
                if all(guard(egraph, env) for guard in arm.guards)
            ])
            for rule in rules
            for arm in rule.arms
        ]
        for arm, matches in found:
            for class_id, env in matches:
                if all(cond(egraph, env) for cond in arm.conditions):
                    egraph.union(class_id, instantiate(egraph, arm.rhs, env))
        egraph.rebuild()
        if egraph.version == before:
            return iteration + 1
    raise AssertionError(f"no fixpoint within {max_iters} iterations")


def ast_size_costs(egraph) -> dict[int, int]:
    """Smallest extractable tree size per canonical class (an ``ASSUME``
    costs its guarded child), by a parent-driven worklist."""
    find = egraph.find
    best: dict[int, int] = {}

    def node_cost(enode) -> int | None:
        kids = enode.children[:1] if enode.op is ops.ASSUME else enode.children
        costs = [best.get(find(child)) for child in kids]
        if None in costs:
            return None
        return costs[0] if enode.op is ops.ASSUME else 1 + sum(costs)

    pending = deque(eclass.id for eclass in egraph.classes())
    while pending:
        root = find(pending.popleft())
        eclass = egraph[root]
        costs = [c for c in map(node_cost, eclass.nodes) if c is not None]
        if costs and (root not in best or min(costs) < best[root]):
            best[root] = min(costs)
            pending.extend(eclass.parents.values())
    return best


def egraph_model_cost(
    expr: Expr, input_ranges: Mapping[str, IntervalSet] | None = None
) -> DelayArea:
    """Section IV-D model cost of a tree, priced through the e-graph.

    Loads the tree into a throwaway e-graph (no rewriting) so the extraction
    cost function sees e-class analysis widths, then costs it as-is.
    """
    egraph = EGraph([DatapathAnalysis(dict(input_ranges or {}))])
    root = egraph.add_expr(expr)
    egraph.rebuild()
    return Extractor(egraph, DelayAreaCost()).cost_of(root)
