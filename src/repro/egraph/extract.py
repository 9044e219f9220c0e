"""Cost-directed extraction of the best design from a saturated e-graph.

This is egg's standard bottom-up extraction (Section IV-D of the paper): a
fixpoint computes the cheapest cost achievable for every e-class, then the
best expression is rebuilt top-down.

``ASSUME`` nodes are *wires*: the paper treats them "as assignment statements
in the implementation phase", so extraction costs an ASSUME exactly its
guarded child and (by default) strips the wrapper from the extracted
expression.  Constraint children never contribute hardware.

Cost functions are pluggable; the delay/area model of the paper lives in
:mod:`repro.synth.cost` and plugs in here.

Extraction is *anytime*: the fixpoint is a worklist whose intermediate
``_best`` table is always a sound (if not yet optimal) choice per costed
class, so a deadline (an absolute instant on an injectable clock — the same
pattern as :class:`~repro.egraph.runner.Runner`) can cut the refinement
short and the extractor hands back its best-so-far checkpoint.  The loop
polls the clock once per worklist step, so an expiring budget is overshot
by at most one step.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.egraph.egraph import EGraph
from repro.egraph.enode import ENode
from repro.ir import ops
from repro.ir.expr import Expr


class CostFunction:
    """Interface: assign a totally ordered cost to choosing an e-node."""

    def enode_cost(
        self, egraph: EGraph, class_id: int, enode: ENode, child_costs: list
    ) -> Any:
        """Cost of ``enode`` given the best costs of its children."""
        raise NotImplementedError


class AstSizeCost(CostFunction):
    """Number of operators in the extracted tree (egg's ``AstSize``)."""

    def enode_cost(self, egraph, class_id, enode, child_costs):
        return 1 + sum(child_costs)


class AstDepthCost(CostFunction):
    """Height of the extracted tree (egg's ``AstDepth``)."""

    def enode_cost(self, egraph, class_id, enode, child_costs):
        return 1 + max(child_costs, default=0)


@dataclass
class ExtractReport:
    """Outcome of one extraction stage (the anytime contract's receipt).

    ``status`` is ``"complete"`` when the cost fixpoint drained its worklist
    and ``"deadline"`` when the budget cut it short; ``roots`` records, per
    output, whether the best-so-far checkpoint was used (``"extracted"``) or
    extraction never costed the root and the behavioural tree was returned
    unchanged (``"fallback"``).
    """

    status: str  # "complete" | "deadline"
    total_time: float = 0.0
    #: Worklist steps the fixpoint executed (the anytime loop's granularity).
    steps: int = 0
    #: Per-output outcome: name -> "extracted" | "fallback".
    roots: dict[str, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "total_time_s": round(self.total_time, 6),
            "steps": self.steps,
            "roots": dict(self.roots),
        }


class Extractor:
    """Compute best costs for every class and rebuild best expressions.

    ``deadline`` is an absolute instant on ``clock`` (``time.monotonic`` by
    default, injectable for deterministic tests).  When it passes, the cost
    fixpoint stops within one worklist step and :attr:`complete` turns
    ``False``; the costs computed so far remain a sound checkpoint — any
    class already costed extracts to a valid (possibly sub-optimal) tree,
    and :meth:`try_expr_of` reports the rest as unextractable instead of
    raising.
    """

    def __init__(
        self,
        egraph: EGraph,
        cost_fn: CostFunction,
        strip_assumes: bool = True,
        deadline: float | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.egraph = egraph
        self.cost_fn = cost_fn
        self.strip_assumes = strip_assumes
        self.deadline = math.inf if deadline is None else deadline
        self.clock: Callable[[], float] = (
            clock if clock is not None else time.monotonic
        )
        #: Worklist steps executed by the fixpoint.
        self.steps = 0
        #: False when the deadline cut the fixpoint short.
        self.complete = True
        self._best: dict[int, tuple[Any, ENode]] = {}
        self._memo: dict[int, Expr] = {}
        if hasattr(egraph, "core") and hasattr(cost_fn, "pricer"):
            self._run_fixpoint_core()
        else:
            self._run_fixpoint()

    # --------------------------------------------------------------- fixpoint
    def _candidates(self, class_id: int) -> Iterable[ENode]:
        return self.egraph[class_id].nodes

    def _enode_cost(self, class_id: int, enode: ENode) -> Any:
        """Cost of one e-node, or None when some child is still uncosted."""
        find = self.egraph.find
        if enode.op is ops.ASSUME:
            entry = self._best.get(find(enode.children[0]))
            return None if entry is None else entry[0]
        child_costs = []
        for child in enode.children:
            entry = self._best.get(find(child))
            if entry is None:
                return None
            child_costs.append(entry[0])
        return self.cost_fn.enode_cost(self.egraph, class_id, enode, child_costs)

    def _run_fixpoint(self) -> None:
        """Parent-driven worklist to the best-cost fixpoint.

        Every class is visited once bottom-up (creation order approximates a
        topological order), and a class is revisited only when one of its
        children improved — instead of whole-graph sweeps repeated until
        quiescence.
        """
        find = self.egraph.find
        clock = self.clock
        bounded = not math.isinf(self.deadline)
        pending: deque[int] = deque()
        queued: set[int] = set()
        for eclass in self.egraph.classes():
            pending.append(eclass.id)
            queued.add(eclass.id)
        while pending:
            # Anytime poll: one read per step keeps the overshoot at one
            # worklist step, and costs nothing when the run is ungoverned.
            if bounded and clock() > self.deadline:
                self.complete = False
                break
            self.steps += 1
            class_id = pending.popleft()
            queued.discard(class_id)
            root = find(class_id)
            eclass = self.egraph[root]
            current = self._best.get(root)
            improved = False
            for enode in eclass.nodes:
                cost = self._enode_cost(root, enode)
                if cost is None:
                    continue
                if current is None or cost < current[0]:
                    current = (cost, enode)
                    improved = True
            if not improved:
                continue
            self._best[root] = current
            for pid in eclass.parents.values():
                parent = find(pid)
                if parent not in queued:
                    pending.append(parent)
                    queued.add(parent)

    def _run_fixpoint_core(self) -> None:
        """Flat-core fixpoint for decomposable delay/area cost functions.

        Same worklist as :meth:`_run_fixpoint`, but over the core's int
        arrays: candidates are nids iterated straight from the member sets
        (no :class:`ENode` views), each node's *own* (delay, area) comes from
        the cost function's per-run ``pricer`` and is cached by nid, and the
        combine — ``delay = own + max(children)``,
        ``area = own + sum(children)``, ASSUME = its guarded child — runs on
        plain floats, with comparison keys built by ``cost_fn.key`` and full
        cost objects materialized only when a class's best improves (so the
        anytime ``_best`` checkpoint stays identical to the generic path's).
        """
        core = self.egraph.core
        cost_fn = self.cost_fn
        price = cost_fn.pricer(self.egraph)
        key_fn = cost_fn.key
        from_parts = cost_fn.cost_from_parts
        clock = self.clock
        bounded = not math.isinf(self.deadline)
        find = core.uf.find
        node_first = core.node_first
        node_nkids = core.node_nkids
        node_alive = core.node_alive
        node_class = core.node_class
        node_op = core.node_op
        kids_buf = core.kids
        class_nodes = core.class_nodes
        class_parents = core.class_parents
        node_enode = core.node_enode
        assume_id = core.op_ids.get(ops.ASSUME, -1)

        #: root -> (key, delay, area); mirrors ``_best`` without objects.
        fast: dict[int, tuple] = {}
        #: Own (delay, area) of each node (child-independent), as flat
        #: columns with a NaN not-yet-computed sentinel — a dict of tuples
        #: here is live exactly when the graph peaks, and would put the
        #: flat path's peak bytes above the object engine's.
        nan = math.nan
        own_delay = array("d", [nan]) * len(node_op)
        own_area = array("d", [nan]) * len(node_op)
        pending: deque[int] = deque()
        queued: set[int] = set()
        for class_id in core.class_ids():
            pending.append(class_id)
            queued.add(class_id)
        while pending:
            if bounded and clock() > self.deadline:
                self.complete = False
                break
            self.steps += 1
            root = find(pending.popleft())
            queued.discard(root)
            current = fast.get(root)
            best_nid = -1
            for nid in class_nodes[root]:
                first = node_first[nid]
                if node_op[nid] == assume_id:
                    entry = fast.get(find(kids_buf[first]))
                    if entry is None:
                        continue
                    key, delay, area = entry
                else:
                    delay = 0.0
                    area = 0.0
                    for i in range(first, first + node_nkids[nid]):
                        entry = fast.get(find(kids_buf[i]))
                        if entry is None:
                            break
                        if entry[1] > delay:
                            delay = entry[1]
                        area += entry[2]
                    else:
                        d = own_delay[nid]
                        if d != d:  # NaN: not computed yet
                            parts = price(root, node_enode(nid))
                            own_delay[nid] = d = parts[0]
                            own_area[nid] = parts[1]
                        delay += d
                        area += own_area[nid]
                        key = key_fn(delay, area)
                        if current is None or key < current[0]:
                            current = (key, delay, area)
                            best_nid = nid
                    continue
                if current is None or key < current[0]:
                    current = (key, delay, area)
                    best_nid = nid
            if best_nid < 0:
                continue
            fast[root] = current
            self._best[root] = (
                from_parts(current[1], current[2]),
                node_enode(best_nid),
            )
            for pid in class_parents[root]:
                if not node_alive[pid]:
                    continue
                parent = node_class[pid]
                if parent not in queued:
                    pending.append(parent)
                    queued.add(parent)

    # ---------------------------------------------------------------- queries
    def selection(self) -> dict[int, ENode]:
        """Best-so-far e-node choice per costed class (a copy).

        The greedy fixpoint's solution as a flat class -> e-node map: the
        warm-start incumbent the ILP extraction objective
        (:mod:`repro.solve`) seeds its branch-and-bound with.  Chains of
        zero-cost wires can make the raw map cyclic (the same zero-progress
        cycles :meth:`expr_of` path-guards around), so consumers needing a
        guaranteed-acyclic selection repair it through
        :func:`repro.solve.ilp.feasible_selection`.
        """
        return {cid: entry[1] for cid, entry in self._best.items()}

    def has_cost(self, class_id: int) -> bool:
        """Whether the (possibly truncated) fixpoint costed this class."""
        return self.egraph.find(class_id) in self._best

    def try_expr_of(self, class_id: int) -> Expr | None:
        """Best-so-far expression for the class, or ``None``.

        The anytime entry point: a deadline-truncated fixpoint may have left
        this class uncosted (or costed only through a cycle with no acyclic
        alternative yet) — both come back as ``None`` so a governed caller
        can fall back to its own checkpoint instead of handling exceptions.
        """
        if not self.has_cost(class_id):
            return None
        try:
            return self.expr_of(class_id)
        except (KeyError, _CycleError):
            return None

    def cost_of(self, class_id: int) -> Any:
        """Best cost for the class (raises if unextractable)."""
        entry = self._best.get(self.egraph.find(class_id))
        if entry is None:
            raise KeyError(f"class {class_id} has no extractable expression")
        return entry[0]

    def best_enode(self, class_id: int) -> ENode:
        """The e-node realizing the best cost."""
        entry = self._best.get(self.egraph.find(class_id))
        if entry is None:
            raise KeyError(f"class {class_id} has no extractable expression")
        return entry[1]

    def expr_of(self, class_id: int) -> Expr:
        """Rebuild the cheapest expression for the class.

        A path guard tolerates zero-progress cycles (e.g. chains of ASSUME
        wires): when the best e-node would revisit a class already on the
        current path, the next-cheapest e-node is used instead.
        """
        return self._build(self.egraph.find(class_id), frozenset())

    def _build(self, class_id: int, path: frozenset[int]) -> Expr:
        find = self.egraph.find
        class_id = find(class_id)
        if class_id in self._memo:
            return self._memo[class_id]
        if class_id in path:
            raise _CycleError(class_id)
        path = path | {class_id}

        ranked = []
        for enode in self._candidates(class_id):
            cost = self._enode_cost(class_id, enode)
            if cost is not None:
                ranked.append((cost, repr(enode), enode))
        ranked.sort(key=lambda t: (t[0], t[1]))
        if not ranked:
            raise KeyError(f"class {class_id} has no extractable expression")

        last_error: _CycleError | None = None
        for _cost, _tag, enode in ranked:
            try:
                expr = self._build_enode(enode, path)
            except _CycleError as err:
                last_error = err
                continue
            self._memo[class_id] = expr
            return expr
        raise last_error if last_error else KeyError(class_id)

    def _build_enode(self, enode: ENode, path: frozenset[int]) -> Expr:
        if enode.op is ops.ASSUME:
            guarded = self._build(enode.children[0], path)
            if self.strip_assumes:
                return guarded
            constraints = tuple(
                self._build(c, path) for c in enode.children[1:]
            )
            return Expr(ops.ASSUME, (), (guarded,) + constraints)
        kids = tuple(self._build(c, path) for c in enode.children)
        return Expr(enode.op, enode.attrs, kids)


class _CycleError(Exception):
    """Internal: the chosen e-node closes a cycle on the current path."""

    def __init__(self, class_id: int) -> None:
        super().__init__(f"extraction cycle through class {class_id}")
        self.class_id = class_id
