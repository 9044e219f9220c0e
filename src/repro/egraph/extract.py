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

A complete flat-core fixpoint exports its solution as an
:class:`ExtractTable`, which persists with the e-graph artifact
(:mod:`repro.egraph.serialize`).  An extractor handed a table that fits its
graph and objective adopts it instead of re-running the fixpoint.  Reuse is
all or nothing: the default objective is not monotone through
``delay = own + max(children)``, so a fixpoint resumed after a graph edit
could settle differently from a fresh one, and a table is only ever
reused on the graph it was solved on.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.egraph.egraph import EGraph
from repro.egraph.enode import ENode
from repro.ir import ops
from repro.ir.expr import Expr


class CostFunction:
    """Interface: a decomposable extraction objective.

    A node's cost is its *own* (delay, area) combined with its children's:
    ``delay = own + max(children)``, ``area = own + sum(children)``, and an
    ``ASSUME`` costs exactly its guarded child.  ``key`` orders the folded
    parts and ``cost_from_parts`` turns them into the cost value callers see.
    The ILP extraction (:mod:`repro.solve.ilp`) consumes the same protocol.
    """

    def pricer(self, egraph: EGraph) -> Callable[[int, ENode], tuple[float, float]]:
        """``price(class_id, enode)``: the node's own (delay, area) over
        ``egraph`` as it stands."""
        raise NotImplementedError

    def key(self, delay: float, area: float) -> Any:
        """The totally ordered comparison key of folded parts."""
        raise NotImplementedError

    def cost_from_parts(self, delay: float, area: float) -> Any:
        """The cost value of folded parts."""
        raise NotImplementedError


def _unit_area(class_id: int, enode: ENode) -> tuple[float, float]:
    return (0.0, 1.0)


def _unit_delay(class_id: int, enode: ENode) -> tuple[float, float]:
    return (1.0, 0.0)


class AstSizeCost(CostFunction):
    """Number of operators in the extracted tree (egg's ``AstSize``)."""

    def pricer(self, egraph):
        return _unit_area

    def key(self, delay, area):
        return area

    def cost_from_parts(self, delay, area):
        return int(area)


class AstDepthCost(CostFunction):
    """Height of the extracted tree (egg's ``AstDepth``)."""

    def pricer(self, egraph):
        return _unit_delay

    def key(self, delay, area):
        return delay

    def cost_from_parts(self, delay, area):
        return int(delay)


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
    #: Where the greedy cost table came from: "solved" by the fixpoint or
    #: "reused" from a warm-start artifact (0 steps); empty for reports of
    #: stages that run no greedy fixpoint (the ILP refinement).
    greedy_table: str = ""

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "total_time_s": round(self.total_time, 6),
            "steps": self.steps,
            "roots": dict(self.roots),
            "greedy_table": self.greedy_table,
        }


def objective_tag(key: Callable | None) -> str | None:
    """The name a key function's solved tables persist under.

    Only a module-level function has a name that means the same ordering
    in another process: its module-qualified name.  Closures (such as
    :func:`~repro.synth.cost.weighted_key`'s), lambdas, methods and
    partials get ``None`` — their tables are never exported.
    """
    qualname = getattr(key, "__qualname__", "")
    module = getattr(key, "__module__", None)
    if not module or not qualname or "." in qualname or "<" in qualname:
        return None
    return f"{module}.{qualname}"


def graph_fingerprint(core) -> tuple[int, int, int, int]:
    """Changes on any insert or union, and survives the pickle round trip:
    union count, alive nodes, canonical classes and allocated node rows."""
    return (core.version, core.n_nodes, core.n_classes, len(core.node_op))


@dataclass(frozen=True)
class ExtractTable:
    """A complete greedy fixpoint, detached from its extractor.

    One entry per costed canonical class — its best node id and that
    node's (delay, area) — in flat columns, in the order the fixpoint first
    costed the classes.  ``fingerprint`` names the graph it was solved on
    (:func:`graph_fingerprint`) and ``objective`` the key function
    (:func:`objective_tag`).
    """

    objective: str
    fingerprint: tuple[int, int, int, int]
    classes: array
    nids: array
    delays: array
    areas: array

    @classmethod
    def solved(cls, objective: str, core, fast: dict[int, tuple]) -> ExtractTable:
        """The table of a complete flat fixpoint over ``core``, from its
        ``class -> (key, delay, area, best nid)`` mirror."""
        entries = fast.values()
        return cls(
            objective=objective,
            fingerprint=graph_fingerprint(core),
            classes=array("q", fast),
            nids=array("q", [entry[3] for entry in entries]),
            delays=array("d", [entry[1] for entry in entries]),
            areas=array("d", [entry[2] for entry in entries]),
        )

    def fits(self, core, objective: str | None) -> bool:
        """Whether this table is the fixpoint of ``core`` under ``objective``."""
        solved_on = graph_fingerprint(core)
        return objective == self.objective and self.fingerprint == solved_on


class Extractor:
    """Compute best costs for every class and rebuild best expressions.

    ``deadline`` is an absolute instant on ``clock`` (``time.monotonic`` by
    default, injectable for deterministic tests).  When it passes, the cost
    fixpoint stops within one worklist step and :attr:`complete` turns
    ``False``; the costs computed so far remain a sound checkpoint — any
    class already costed extracts to a valid (possibly sub-optimal) tree,
    and :meth:`try_expr_of` reports the rest as unextractable instead of
    raising.

    ``table`` is a previously solved :class:`ExtractTable`: when it
    :meth:`~ExtractTable.fits` the graph and ``cost_fn``'s key, the
    extractor adopts it and runs no fixpoint (:attr:`reused`, 0 steps).
    """

    def __init__(
        self,
        egraph: EGraph,
        cost_fn: CostFunction,
        strip_assumes: bool = True,
        deadline: float | None = None,
        clock: Callable[[], float] | None = None,
        table: ExtractTable | None = None,
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
        #: True when a fitting ``table`` replaced the fixpoint.
        self.reused = False
        #: class -> (key, delay, area, best nid): the fixpoint's solution.
        self._best: dict[int, tuple] = {}
        self._memo: dict[int, Expr] = {}
        self._table: ExtractTable | None = None
        self._price = cost_fn.pricer(egraph)
        objective = objective_tag(cost_fn.key)
        if table is not None and table.fits(egraph.core, objective):
            self._adopt(table)
        else:
            self._solve()
            if self.complete and objective is not None:
                self._table = ExtractTable.solved(objective, egraph.core, self._best)

    def _adopt(self, table: ExtractTable) -> None:
        """Rebuild ``_best`` from a solved table, in its original order."""
        key = self.cost_fn.key
        self._best = {
            cid: (key(delay, area), delay, area, nid)
            for cid, nid, delay, area in zip(
                table.classes, table.nids, table.delays, table.areas
            )
        }
        self._table = table
        self.reused = True

    def table(self) -> ExtractTable | None:
        """The solved fixpoint as a persistable :class:`ExtractTable`.

        ``None`` unless the fixpoint ran to completion (or a table was
        adopted) under a key with an :func:`objective_tag`: a truncated
        checkpoint is not the fixpoint, and a closure's ordering cannot be
        named across processes.
        """
        return self._table

    # --------------------------------------------------------------- fixpoint
    def _solve(self) -> None:
        """Parent-driven worklist to the best-cost fixpoint over the core.

        Every class is visited once bottom-up (creation order approximates a
        topological order), and a class is revisited only when one of its
        children improved — instead of whole-graph sweeps repeated until
        quiescence.  Candidates are nids iterated straight from the member
        sets, each node's *own* (delay, area) comes from the cost function's
        ``pricer`` and is cached by nid, and the combine —
        ``delay = own + max(children)``, ``area = own + sum(children)``,
        ASSUME = its guarded child — runs on plain floats, compared by
        ``cost_fn.key``.
        """
        core = self.egraph.core
        price = self._price
        key_fn = self.cost_fn.key
        clock = self.clock
        bounded = not math.isinf(self.deadline)
        find = core.uf.find
        #: Union-find parents: an id that is its own parent is canonical,
        #: and most child ids of a rebuilt graph are, so the fixpoint tests
        #: that before paying for a ``find`` call.
        uf_parent = core.uf._parent
        node_alive = core.node_alive
        node_class = core.node_class
        node_op = core.node_op
        kid_tups = core._kid_tups
        class_nodes = core.class_nodes
        class_parents = core.class_parents
        node_enode = core.node_enode
        assume_id = core.op_ids.get(ops.ASSUME, -1)

        best = self._best
        #: Own (delay, area) of each node (child-independent), as flat
        #: columns with a NaN not-yet-computed sentinel — a dict of tuples
        #: here is live exactly when the graph peaks.
        nan = math.nan
        own_delay = array("d", [nan]) * len(node_op)
        own_area = array("d", [nan]) * len(node_op)
        pending: deque[int] = deque()
        queued: set[int] = set()
        for class_id in core.class_ids():
            pending.append(class_id)
            queued.add(class_id)
        while pending:
            # Anytime poll: one read per step keeps the overshoot at one
            # worklist step, and costs nothing when there is no deadline.
            if bounded and clock() > self.deadline:
                self.complete = False
                break
            self.steps += 1
            root = find(pending.popleft())
            queued.discard(root)
            current = best.get(root)
            improved = False
            for nid in class_nodes[root]:
                if node_op[nid] == assume_id:
                    child = kid_tups[nid][0]
                    entry = best.get(
                        child if uf_parent[child] == child else find(child)
                    )
                    if entry is None:
                        continue
                    key, delay, area, _ = entry
                else:
                    delay = 0.0
                    area = 0.0
                    for child in kid_tups[nid]:
                        entry = best.get(
                            child if uf_parent[child] == child else find(child)
                        )
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
                            current = (key, delay, area, nid)
                            improved = True
                    continue
                if current is None or key < current[0]:
                    current = (key, delay, area, nid)
                    improved = True
            if not improved:
                continue
            best[root] = current
            for pid in class_parents[root]:
                if not node_alive[pid]:
                    continue
                parent = node_class[pid]
                if parent not in queued:
                    pending.append(parent)
                    queued.add(parent)

    def _parts(self, root: int, nid: int) -> tuple[float, float] | None:
        """The fixpoint's combine for one candidate: node ``nid``'s folded
        (delay, area) in class ``root``, or None while a child is uncosted."""
        core = self.egraph.core
        find = core.uf.find
        kids = core._kid_tups[nid]
        if core.ops[core.node_op[nid]] is ops.ASSUME:
            entry = self._best.get(find(kids[0]))
            return None if entry is None else (entry[1], entry[2])
        delay = 0.0
        area = 0.0
        for child in kids:
            entry = self._best.get(find(child))
            if entry is None:
                return None
            if entry[1] > delay:
                delay = entry[1]
            area += entry[2]
        own_delay, own_area = self._price(root, core.node_enode(nid))
        return delay + own_delay, area + own_area

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
        node_enode = self.egraph.core.node_enode
        return {cid: node_enode(entry[3]) for cid, entry in self._best.items()}

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

    def _entry(self, class_id: int) -> tuple:
        entry = self._best.get(self.egraph.find(class_id))
        if entry is None:
            raise KeyError(f"class {class_id} has no extractable expression")
        return entry

    def cost_of(self, class_id: int) -> Any:
        """Best cost for the class (raises if unextractable)."""
        entry = self._entry(class_id)
        return self.cost_fn.cost_from_parts(entry[1], entry[2])

    def best_enode(self, class_id: int) -> ENode:
        """The e-node realizing the best cost."""
        return self.egraph.core.node_enode(self._entry(class_id)[3])

    def expr_of(self, class_id: int) -> Expr:
        """Rebuild the cheapest expression for the class.

        A path guard tolerates zero-progress cycles (e.g. chains of ASSUME
        wires): when the best e-node would revisit a class already on the
        current path, the next-cheapest e-node is used instead.
        """
        return self._build(self.egraph.find(class_id))

    def _ranked(self, class_id: int) -> list[ENode]:
        """The class's costed e-nodes, cheapest first (ties by ``repr``)."""
        node_enode = self.egraph.core.node_enode
        from_parts = self.cost_fn.cost_from_parts
        ranked = []
        for nid in self.egraph.core.class_nodes[class_id]:
            parts = self._parts(class_id, nid)
            if parts is not None:
                enode = node_enode(nid)
                ranked.append((from_parts(*parts), repr(enode), enode))
        ranked.sort(key=lambda t: (t[0], t[1]))
        if not ranked:
            raise KeyError(f"class {class_id} has no extractable expression")
        return [enode for _cost, _tag, enode in ranked]

    def _build(self, root: int) -> Expr:
        """Top-down rebuild from ``root``, on an explicit stack, so deep
        designs extract without Python recursion.

        One frame per class on the current path: its ranked e-nodes, the
        one being tried, and the children built for it so far.  A child
        class already on the path fails that e-node with a
        :class:`_CycleError` and the frame moves on to its next-cheapest
        e-node; a frame out of e-nodes fails its parent's e-node the same
        way, and the root's failure is raised.  Every class that builds is
        memoized, also under an e-node that later fails.
        """
        find = self.egraph.find
        memo = self._memo
        if root in memo:
            return memo[root]
        strip = self.strip_assumes
        #: Frames: [class id, ranked e-nodes, index of the e-node tried,
        #: its child class ids, the child exprs built so far].
        stack: list[list] = []
        on_path: set[int] = set()

        def push(class_id: int) -> None:
            frame = [class_id, self._ranked(class_id), 0, (), []]
            stack.append(frame)
            on_path.add(class_id)
            start(frame)

        def start(frame: list) -> None:
            enode = frame[1][frame[2]]
            kids = enode.children
            if enode.op is ops.ASSUME and strip:
                kids = kids[:1]
            frame[3] = kids
            frame[4] = []

        push(root)
        while True:
            frame = stack[-1]
            kids, built = frame[3], frame[4]
            if len(built) < len(kids):
                child = find(kids[len(built)])
                expr = memo.get(child)
                if expr is not None:
                    built.append(expr)
                    continue
                if child not in on_path:
                    push(child)
                    continue
                error = _CycleError(child)
            else:
                enode = frame[1][frame[2]]
                if enode.op is not ops.ASSUME:
                    expr = Expr(enode.op, enode.attrs, tuple(built))
                elif strip:
                    expr = built[0]
                else:
                    expr = Expr(ops.ASSUME, (), tuple(built))
                memo[frame[0]] = expr
                stack.pop()
                on_path.discard(frame[0])
                if not stack:
                    return expr
                stack[-1][4].append(expr)
                continue
            # The tried e-node closes a cycle: move on to the frame's next
            # e-node, or fail the parent's e-node when there is none.
            while True:
                frame = stack[-1]
                frame[2] += 1
                if frame[2] < len(frame[1]):
                    start(frame)
                    break
                stack.pop()
                on_path.discard(frame[0])
                if not stack:
                    raise error


class _CycleError(Exception):
    """Internal: the chosen e-node closes a cycle on the current path."""

    def __init__(self, class_id: int) -> None:
        super().__init__(f"extraction cycle through class {class_id}")
        self.class_id = class_id
