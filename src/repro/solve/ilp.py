"""0/1 ILP formulation of e-graph extraction, with an anytime branch-and-bound.

The greedy extractor (:mod:`repro.egraph.extract`) minimizes *tree* cost per
root: a shared subterm is priced once per parent, so a selection that reuses
an already-needed class can look more expensive than duplicating cheaper
hardware.  This module states extraction as the integer program it really is
and optimizes the *DAG* cost — each selected e-node's own area counts once,
however many parents reuse it — which is the objective ROVER-style global
extraction pays off on.

Formulation (per output cone):

* variables: ``x[n] ∈ {0,1}`` per e-node candidate, ``y[c] ∈ {0,1}`` per
  e-class;
* root constraint: ``y[c] = 1`` for every root class;
* class choice: ``Σ_{n ∈ c} x[n] = y[c]`` — a needed class realizes exactly
  one of its e-nodes;
* child implication: ``x[n] ≤ y[c']`` for every cost child class ``c'`` of
  ``n`` — choosing a node needs its children;
* cycle exclusion: the selected subgraph must be acyclic (enforced lazily —
  a cyclic selection evaluates as infeasible instead of enumerating the
  exponentially many cycle-cut constraints up front);
* objective: minimize ``key(delay, area)`` where ``delay`` is the longest
  own-delay path from any root through the selection and ``area`` is the
  sum of the *needed* selected nodes' own areas, counted once each.

The solver is a pure-python branch-and-bound (stdlib only, like the rest of
the repo).  Bounding is LP-style relaxation in spirit: the delay bound is
the per-class min-delay fixpoint (the value an LP relaxation of the delay
rows attains), the area bound sums each definitely-needed class's cheapest
member — both are monotone under any of the repo's objective keys, so
pruning is sound.  The search is **anytime**: it starts from a feasible
incumbent (normally the greedy extractor's selection), every improvement
replaces it, and a deadline or step-quota expiry returns the best incumbent
with ``status="incumbent"`` instead of raising; a drained search tree
returns ``status="optimal"``.

The search branches on the first undecided class of the definitely-needed
region in the pre-order of :func:`_partial_bound`'s walk from the roots, so
the decided classes always form a prefix of that pre-order.  That invariant
is what lets the bound be maintained incrementally along the depth-first
search instead of re-walked per node: deciding a class updates the region,
its area, the cycle test and the next frontier locally
(:func:`_branch_and_bound`), and undoing it restores them from a log.  The
arrivals of its decided ancestors are propagated only when a cheaper lower
bound cannot prune the decide already: the class's new arrival plus the own
delays along its DFS-tree path from the roots.  Most decides are pruned on
that path bound alone.  Propagated delay is bit-exact with the walk's; area
is a float sum in a different order, so a node whose incremental key is
within rounding of the incumbent's asks the walk, which stays the one
definition of the bound.  The search itself — branch class, candidate
order, step counting, prune decisions — is the walk-per-step one.

``ASSUME`` nodes cost as wires over their guarded child (the paper treats
them as assignment statements); constraint children never contribute
hardware and are therefore not part of the problem — the stage rebuilding
the winning expression re-attaches them from the greedy extractor's trees.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Container, Iterable, Mapping

from repro.ir import ops
from repro.synth.cost import default_key

__all__ = [
    "Candidate",
    "ExtractionProblem",
    "SolveResult",
    "extraction_problem",
    "evaluate_selection",
    "feasible_selection",
    "solve_extraction",
    "brute_force",
]


@dataclass(frozen=True)
class Candidate:
    """One e-node a class may realize: its cost children and own cost.

    ``children`` are *canonical* child class ids of the cost-relevant
    children only (the guarded child for ``ASSUME``, all children
    otherwise).  ``payload`` is opaque to the solver — the pipeline stores
    the :class:`~repro.egraph.enode.ENode` for rebuilding, tests store
    whatever identifies the choice.
    """

    children: tuple[int, ...]
    delay: float
    area: float
    payload: Any = None


@dataclass
class ExtractionProblem:
    """The 0/1 program over one cone: classes, candidates, roots, objective.

    Every candidate's ``delay`` is finite and non-negative, and the sum of
    each class's largest delay is finite (:func:`solve_extraction` raises
    ``ValueError`` otherwise): arrivals then only rise as classes are
    decided, which the search's delay bounds rely on.
    """

    roots: tuple[int, ...]
    #: class id -> candidate tuple (every id reachable from the roots).
    candidates: dict[int, tuple[Candidate, ...]]
    #: (delay, area) -> totally ordered comparison key; must be monotone in
    #: both arguments (all of :mod:`repro.synth.cost`'s keys are).
    key: Callable[[float, float], tuple] = default_key

    @property
    def size(self) -> int:
        return len(self.candidates)

    def variables(self) -> int:
        """Number of 0/1 selection variables (one per candidate + one per
        class), for governance reporting."""
        return self.size + sum(len(c) for c in self.candidates.values())


@dataclass
class SolveResult:
    """Outcome of one branch-and-bound run (the anytime contract's receipt).

    ``status`` is ``"optimal"`` when the search tree drained (the incumbent
    is provably the best feasible selection) and ``"incumbent"`` when the
    deadline or step quota cut the proof short — the incumbent is still the
    best selection *seen*, never worse than the warm start.
    """

    status: str  # "optimal" | "incumbent"
    selection: dict[int, int]  # class id -> candidate index
    delay: float
    area: float
    key: tuple
    #: Search nodes expanded (bound evaluations), the governance unit.
    steps: int = 0
    #: Whether the result strictly improved on the warm-start incumbent.
    improved: bool = False


# --------------------------------------------------------------------- build
def extraction_problem(
    egraph,
    root_ids: Iterable[int],
    cost_fn,
    max_classes: int | None = None,
) -> ExtractionProblem | None:
    """Build the cone's program from a saturated e-graph.

    ``cost_fn`` needs the decomposed interface of
    :class:`~repro.synth.cost.DelayAreaCost`: ``pricer(egraph)`` (own
    delay/area per ``(cid, enode)``) and a monotone ``key(delay, area)``.  Returns ``None`` when the
    reachable cone exceeds ``max_classes`` — the caller's quota-blow-up
    signal, which degrades to greedy instead of building a hopeless model.
    """
    find = egraph.find
    price = cost_fn.pricer(egraph)
    roots = tuple(dict.fromkeys(find(r) for r in root_ids))
    candidates: dict[int, tuple[Candidate, ...]] = {}
    stack = list(roots)
    while stack:
        cid = stack.pop()
        if cid in candidates:
            continue
        if max_classes is not None and len(candidates) >= max_classes:
            return None
        members: list[Candidate] = []
        seen: set[tuple] = set()
        for enode in egraph[cid].nodes:
            if enode.op is ops.ASSUME:
                children = (find(enode.children[0]),)
                own_delay = own_area = 0.0
            else:
                children = tuple(find(c) for c in enode.children)
                own_delay, own_area = price(cid, enode)
            if cid in children:
                # A self-loop can never appear in an acyclic selection.
                continue
            signature = (children, own_delay, own_area)
            if signature in seen:
                continue  # interchangeable for the objective; keep one
            seen.add(signature)
            members.append(
                Candidate(children, own_delay, own_area, payload=enode)
            )
            stack.extend(c for c in children if c not in candidates)
        candidates[cid] = tuple(members)
    return ExtractionProblem(
        roots=roots, candidates=candidates, key=cost_fn.key
    )


# ---------------------------------------------------------------- evaluation
def evaluate_selection(
    problem: ExtractionProblem, selection: Mapping[int, int]
) -> tuple[tuple, float, float, set[int]] | None:
    """Exact objective of a (possibly partial) selection.

    Returns ``(key, delay, area, needed)`` — or ``None`` when the selection
    is infeasible: a needed class has no chosen candidate, or the choices
    close a cycle (the lazily-enforced cycle-exclusion constraint).
    """
    candidates = problem.candidates
    GRAY, BLACK = 1, 2
    color: dict[int, int] = {}
    arrival: dict[int, float] = {}
    area = 0.0
    stack: list[tuple[int, bool]] = [(c, False) for c in problem.roots]
    while stack:
        cid, ready = stack.pop()
        if ready:
            chosen = candidates[cid][selection[cid]]
            arrival[cid] = chosen.delay + max(
                (arrival[k] for k in chosen.children), default=0.0
            )
            area += chosen.area
            color[cid] = BLACK
            continue
        state = color.get(cid)
        if state == BLACK:
            continue
        if state == GRAY:
            return None  # back edge: the selection closes a cycle
        index = selection.get(cid)
        if index is None or index >= len(candidates[cid]):
            return None  # needed class without a (valid) choice
        color[cid] = GRAY
        stack.append((cid, True))
        stack.extend((k, False) for k in candidates[cid][index].children)
    delay = max((arrival[r] for r in problem.roots), default=0.0)
    return problem.key(delay, area), delay, area, set(color)


def feasible_selection(
    problem: ExtractionProblem,
    prefer: Mapping[int, Any] | None = None,
) -> dict[int, int] | None:
    """A feasible (acyclic) selection covering every class that supports one.

    ``prefer`` maps class id -> candidate payload (e.g. the greedy
    extractor's best e-node per class); the preferred candidate is tried
    first, falling back down a cheap-first ranking when it would close a
    cycle — the same path-guard discipline as
    :meth:`repro.egraph.extract.Extractor.expr_of`, so a greedy warm start
    with zero-progress wire cycles still lands on a sound incumbent.
    """
    prefer = prefer or {}
    candidates = problem.candidates
    ranked: dict[int, list[int]] = {}
    for cid, members in candidates.items():
        order = sorted(
            range(len(members)),
            key=lambda i, members=members: (members[i].delay, members[i].area, i),
        )
        liked = prefer.get(cid)
        if liked is not None:
            for position, index in enumerate(order):
                if members[index].payload == liked:
                    order.insert(0, order.pop(position))
                    break
        ranked[cid] = order
    chosen: dict[int, int] = {}
    path: set[int] = set()

    def realize(cid: int):
        """Pick ``cid``'s first ranked candidate whose children all realize.

        The recursive builder's body as a generator, so :func:`build` can
        run it on an explicit stack (a cone can be deeper than the
        interpreter's recursion limit): it yields each child it needs
        realized and is sent back whether that worked.  A child on the
        current path fails the candidate; a memoized child succeeds.
        """
        path.add(cid)
        for index in ranked[cid]:
            for k in candidates[cid][index].children:
                if k not in chosen and (k in path or not (yield k)):
                    break
            else:
                # Children may have been memoized through this candidate's
                # own path; the memo only ever holds acyclic subtrees, so
                # the combination stays acyclic (same argument as the
                # extractor's ``_build``).
                chosen[cid] = index
                break
        path.discard(cid)
        return cid in chosen

    def build(root: int) -> bool:
        if root in chosen:
            return True
        stack = [realize(root)]
        returned = None
        while True:
            try:
                child = stack[-1].send(returned)
            except StopIteration as finished:
                stack.pop()
                returned = finished.value
                if not stack:
                    return returned
            else:
                stack.append(realize(child))
                returned = None

    for root in problem.roots:
        if not build(root):
            return None
    # Cover the remaining classes too (descent may wander into them): any
    # acyclic choice is fine, and unreachable-from-roots classes never
    # affect the objective.
    for cid in candidates:
        build(cid)
    return chosen


# -------------------------------------------------------------------- bounds
def _min_delay_fixpoint(problem: ExtractionProblem) -> dict[int, float]:
    """Per-class lower bound on any acyclic selection's arrival delay.

    The min-over-candidates / max-over-children fixpoint — what an LP
    relaxation of the delay rows attains.  Classes only realizable through
    cycles stay at ``inf`` (no acyclic selection reaches them at all).
    """
    candidates = problem.candidates
    parents: dict[int, set[int]] = {cid: set() for cid in candidates}
    for cid, members in candidates.items():
        for member in members:
            for child in member.children:
                parents[child].add(cid)
    bound = {cid: math.inf for cid in candidates}
    pending = list(candidates)
    queued = set(pending)
    while pending:
        cid = pending.pop()
        queued.discard(cid)
        best = bound[cid]
        for member in candidates[cid]:
            worst_child = 0.0
            for child in member.children:
                arrival = bound[child]
                if arrival > worst_child:
                    worst_child = arrival
            value = member.delay + worst_child
            if value < best:
                best = value
        if best < bound[cid]:
            bound[cid] = best
            for parent in parents[cid]:
                if parent not in queued:
                    pending.append(parent)
                    queued.add(parent)
    return bound


def _min_area(problem: ExtractionProblem) -> dict[int, float]:
    """Cheapest own area any candidate of the class could contribute."""
    return {
        cid: min((m.area for m in members), default=math.inf)
        for cid, members in problem.candidates.items()
    }


def _partial_bound(
    problem: ExtractionProblem,
    selection: Mapping[int, int],
    decided: Container[int],
    lb_delay: Mapping[int, float],
    lb_area: Mapping[int, float],
) -> tuple[tuple, list[int]] | None:
    """Lower bound of any completion of a partial selection.

    Walks the definitely-needed region: classes reachable from the roots
    through *decided* candidates' children.  Decided classes contribute
    their chosen candidate's own cost; undecided reached classes are
    boundary leaves contributing their class-level lower bounds (every
    completion must realize them — ``y[c] = 1`` is already implied).
    Returns ``(bound_key, undecided_frontier)`` — the frontier in
    deterministic discovery order, which is also the branch order — or
    ``None`` when the decided region itself closes a cycle (the subtree is
    infeasible and the caller prunes it).  This walk defines the bound;
    :func:`_branch_and_bound` maintains it incrementally and calls the walk
    to settle near-ties.
    """
    candidates = problem.candidates
    GRAY, BLACK = 1, 2
    color: dict[int, int] = {}
    arrival: dict[int, float] = {}
    area = 0.0
    frontier: list[int] = []
    stack: list[tuple[int, bool]] = [
        (c, False) for c in reversed(problem.roots)
    ]
    while stack:
        cid, ready = stack.pop()
        if ready:
            chosen = candidates[cid][selection[cid]]
            arrival[cid] = chosen.delay + max(
                (arrival[k] for k in chosen.children), default=0.0
            )
            color[cid] = BLACK
            continue
        state = color.get(cid)
        if state == BLACK:
            continue
        if state == GRAY:
            return None  # the decided region is already cyclic
        if cid not in decided:
            color[cid] = BLACK
            arrival[cid] = lb_delay[cid]
            area += lb_area[cid]
            frontier.append(cid)
            continue
        color[cid] = GRAY
        area += candidates[cid][selection[cid]].area
        stack.append((cid, True))
        stack.extend(
            (k, False)
            for k in reversed(candidates[cid][selection[cid]].children)
        )
    delay = max((arrival[r] for r in problem.roots), default=0.0)
    return problem.key(delay, area), frontier


def _area_tolerance(problem: ExtractionProblem) -> float:
    """How far an incrementally maintained area may drift from the walk's.

    :func:`_partial_bound` adds the region's areas up in pre-order; the
    search adds and subtracts the same terms in decide order, so the two
    float sums can differ in the last bits.  Every partial sum of either is
    at most twice ``scale`` (the sum of each class's largest ``|area|``),
    the search performs at most three roundings per class along a path and
    the walk one, so ``4 (n + 1) eps scale`` covers both.  A non-finite
    scale disables the incremental verdict: every step asks the walk.
    """
    scale = 0.0
    for members in problem.candidates.values():
        if members:
            scale += max(abs(member.area) for member in members)
    if not math.isfinite(scale):
        return math.inf
    return 4.0 * (problem.size + 1) * sys.float_info.epsilon * scale


def _delay_tolerance(problem: ExtractionProblem) -> float:
    """How far the path bound's float sum may sit above the exact delay.

    :func:`_branch_and_bound` bounds the root delay after deciding ``X``
    from below by ``arrival[X]`` plus the own delays on ``X``'s DFS-tree
    path, added up in a different order than the arrivals nest.  Delays
    are non-negative, so every partial sum of either is at most twice
    ``scale`` (the sum of each class's largest delay: the decided path and
    the min-delay path below it each visit a class at most once), and
    either side rounds at most ``n + 3`` times by half an ulp, so
    ``4 (n + 1) eps scale`` covers both.  Raises ``ValueError`` on a
    problem outside :class:`ExtractionProblem`'s delay contract.
    """
    scale = 0.0
    for members in problem.candidates.values():
        delays = [member.delay for member in members]
        if not all(0.0 <= delay < math.inf for delay in delays):
            raise ValueError("candidate delays must be finite and non-negative")
        scale += max(delays, default=0.0)
    if not math.isfinite(scale):
        raise ValueError("candidate delays must have a finite total")
    return 4.0 * (problem.size + 1) * sys.float_info.epsilon * scale


def _branch_and_bound(
    problem: ExtractionProblem,
    dtol: float,
    best_sel: dict[int, int],
    best_eval: tuple,
    steps: int,
    max_steps: int,
    limit: float,
    clock: Callable[[], float],
) -> tuple[dict[int, int], tuple, int, bool]:
    """Depth-first search of :func:`solve_extraction`'s phase 2.

    Branches on the first undecided class of the definitely-needed region
    in the walk's pre-order, trying its candidates cheapest-first, and
    prunes a node when :func:`_partial_bound`'s key reaches the incumbent's.
    The bound is maintained along the search instead of re-walked per node:

    * *region*: deciding ``X = c`` adds ``c``'s children not yet in it;
    * *area*: ``c.area - lb_area[X]`` plus ``lb_area`` of each added child;
    * *arrival*: propagated only for a decide the path bound cannot prune.
      That bound is ``c``'s arrival plus the own delays on ``X``'s DFS-tree
      path from the roots (``up[X]``, less ``dtol`` from
      :func:`_delay_tolerance`), or the parent node's delay if larger.
      Delays are non-negative, so arrivals only rise, the bound never
      exceeds the exact delay, and a prune on it is a prune on the exact
      key.  A surviving decide raises ``X``'s decided ancestors to
      ``max(old, own + risen)`` until nothing changes, which is the walk's
      own expression bit for bit;
    * *cycles*: ``c`` closes one exactly when one of its children lies on
      the walk's DFS path to ``X`` (``X`` included);
    * *frontier*: decided classes are always a prefix of the walk's
      pre-order, so a node's frontier is ``c``'s undecided children (in
      order, de-duplicated) followed by its parent's ``frontier[1:]``
      without them.  It is built only for nodes that branch.

    Area is the one inexact part (see :func:`_area_tolerance`): a node whose
    incremental key is within the tolerance of the incumbent's asks the
    walk.  Returns ``(best_sel, best_eval, steps, complete)``.
    """
    candidates = problem.candidates
    key = problem.key
    lb_delay = _min_delay_fixpoint(problem)
    lb_area = _min_area(problem)
    tol = _area_tolerance(problem)
    roots = list(dict.fromkeys(problem.roots))
    selection: dict[int, int] = {}
    region = set(roots)
    arrival = dict(lb_delay)
    #: class -> decided classes whose choice needs it, in decide order; a
    #: decide registers here only once it propagates.
    dparents: defaultdict[int, list[int]] = defaultdict(list)
    #: region class -> the walk's DFS-tree parent (absent or None: a root
    #: reached first from the root list).
    tparent: dict[int, int | None] = {}
    #: region class -> own delays summed along its ``tparent`` path.
    up: dict[int, float | None] = dict.fromkeys(roots, 0.0)
    #: class -> candidate indices cheapest first, sorted on first branch.
    orders: dict[int, list[int]] = {}
    area = 0.0
    for root in roots:
        area += lb_area[root]
    best_key = best_eval[0]

    # A frame per branching node: [class, candidate order, next position,
    # frontier, its decide record, its tparent/up log, its exact delay].  A
    # decide record is [class, children, classes it added to the region,
    # old area, arrival log or None until it propagates]; ``record is
    # None`` with ``cyclic`` false is the root node.
    stack: list[list] = []
    record: list | None = None
    cyclic = False
    pending = parent_delay = 0.0
    parent_frontier: list[int] = []
    while True:
        steps += 1
        if steps > max_steps or clock() > limit:
            return best_sel, best_eval, steps, False
        expand = False
        if not cyclic:
            pruned = False
            if record is not None:
                decided_class = record[0]
                bound = pending + up[decided_class] - dtol
                if bound < parent_delay:
                    bound = parent_delay
                pruned = key(bound, area - tol) >= best_key
                if not pruned:
                    for k in record[1]:
                        dparents[k].append(decided_class)
                    changes: list[tuple[int, float]] = []
                    record[4] = changes
                    if pending != arrival[decided_class]:
                        changes.append((decided_class, arrival[decided_class]))
                        arrival[decided_class] = pending
                        work = [decided_class]
                        while work:
                            risen = work.pop()
                            below = arrival[risen]
                            for parent in dparents[risen]:
                                member = candidates[parent][selection[parent]]
                                value = member.delay + below
                                if value > arrival[parent]:
                                    changes.append((parent, arrival[parent]))
                                    arrival[parent] = value
                                    work.append(parent)
            if not pruned:
                delay = max([arrival[r] for r in roots], default=0.0)
                # A non-finite ``tol`` makes neither verdict hold: the walk decides.
                if key(delay, area - tol) >= best_key:
                    pruned = True
                elif key(delay, area + tol) < best_key:
                    pruned = False
                else:
                    bound = _partial_bound(
                        problem, selection, selection, lb_delay, lb_area
                    )
                    pruned = bound is None or bound[0] >= best_key
            if not pruned:
                if len(region) == len(selection):
                    # Fully decided needed region: the bound was exact.
                    result = evaluate_selection(problem, selection)
                    if result is not None and result[0] < best_key:
                        best_sel = dict(selection)
                        best_eval = result
                        best_key = result[0]
                else:
                    expand = True
        if expand:
            log: list[tuple[int, int | None, float | None]] = []
            if record is None:
                frontier = list(roots)
            else:
                decided_class, children = record[0], record[1]
                fresh = [k for k in dict.fromkeys(children) if k not in selection]
                if fresh:
                    below = up[decided_class] + (
                        candidates[decided_class][selection[decided_class]].delay
                    )
                    for k in fresh:
                        log.append((k, tparent.get(k), up.get(k)))
                        tparent[k] = decided_class
                        up[k] = below
                    moved = set(fresh)
                    frontier = fresh + [
                        f for f in parent_frontier[1:] if f not in moved
                    ]
                else:
                    frontier = parent_frontier[1:]
            branch = frontier[0]
            order = orders.get(branch)
            if order is None:
                members = candidates[branch]
                order = orders[branch] = sorted(
                    range(len(members)),
                    key=lambda i, members=members: (members[i].delay, members[i].area, i),
                )
            stack.append([branch, order, 0, frontier, record, log, delay])
            leaving = None
        else:
            leaving = record

        # Undo the finished nodes and decide the next sibling.
        while True:
            if leaving is not None:
                decided_class, children, added, old_area, changes = leaving
                del selection[decided_class]
                if changes is not None:
                    for k in children:
                        dparents[k].pop()
                    for cid, old in reversed(changes):
                        arrival[cid] = old
                region.difference_update(added)
                area = old_area
                leaving = None
            if not stack:
                return best_sel, best_eval, steps, True
            frame = stack[-1]
            position = frame[2]
            if position == len(frame[1]):
                stack.pop()
                for k, old_parent, old_up in frame[5]:
                    tparent[k] = old_parent
                    up[k] = old_up
                leaving = frame[4]
                continue
            frame[2] = position + 1
            branch = frame[0]
            index = frame[1][position]
            parent_frontier = frame[3]
            parent_delay = frame[6]
            chosen = candidates[branch][index]
            children = chosen.children
            cyclic = False
            for k in children:
                if k == branch or k in selection:
                    on_path = branch
                    while on_path is not None:
                        if on_path in children:
                            cyclic = True
                            break
                        on_path = tparent.get(on_path)
                    break
            if cyclic:
                record = None
                break
            selection[branch] = index
            old_area = area
            area = area + chosen.area - lb_area[branch]
            added = []
            for k in children:
                if k not in region:
                    region.add(k)
                    added.append(k)
                    area += lb_area[k]
            pending = chosen.delay + (
                max([arrival[k] for k in children]) if children else 0.0
            )
            record = [branch, children, added, old_area, None]
            break


# -------------------------------------------------------------------- solver
def solve_extraction(
    problem: ExtractionProblem,
    incumbent: Mapping[int, int] | None = None,
    deadline: float | None = None,
    clock: Callable[[], float] | None = None,
    max_steps: int = 200_000,
    descend: bool = True,
) -> SolveResult | None:
    """Anytime branch-and-bound over the extraction program.

    ``incumbent`` is the warm start (normally the greedy selection via
    :func:`feasible_selection`); when omitted or infeasible one is derived
    internally, and if none exists the problem has no acyclic solution and
    ``None`` comes back.  The search never returns anything worse than the
    warm start: improvements replace the incumbent in place, expiry keeps
    it.  ``descend`` runs a coordinate-descent improvement pass before the
    tree search — it finds most sharing wins in a handful of evaluations,
    so a tight deadline still usually beats greedy before the proof work
    starts.  Raises ``ValueError`` when a delay breaks
    :class:`ExtractionProblem`'s contract (finite, non-negative).
    """
    dtol = _delay_tolerance(problem)
    clock = clock if clock is not None else time.monotonic
    limit = math.inf if deadline is None else deadline
    steps = 0

    best_sel = dict(incumbent) if incumbent else None
    best_eval = (
        evaluate_selection(problem, best_sel) if best_sel is not None else None
    )
    if best_eval is None:
        best_sel = feasible_selection(problem)
        if best_sel is None:
            return None
        best_eval = evaluate_selection(problem, best_sel)
        if best_eval is None:
            return None
    start_key = best_eval[0]

    defaults = dict(best_sel)
    fallback = feasible_selection(problem)
    if fallback:
        for cid, index in fallback.items():
            defaults.setdefault(cid, index)

    # Phase 1: coordinate descent on the needed set — switch one needed
    # class's candidate at a time, keep strict improvements, repeat until a
    # full sweep finds nothing (or the budget expires).
    if descend:
        improved_once = True
        while improved_once and steps < max_steps and clock() <= limit:
            improved_once = False
            for cid in sorted(best_eval[3]):
                members = problem.candidates[cid]
                if len(members) < 2:
                    continue
                current = best_sel[cid]
                for index in range(len(members)):
                    if index == current:
                        continue
                    steps += 1
                    trial = dict(defaults)
                    trial.update(best_sel)
                    trial[cid] = index
                    trial_eval = evaluate_selection(problem, trial)
                    if trial_eval is not None and trial_eval[0] < best_eval[0]:
                        best_sel = trial
                        best_eval = trial_eval
                        improved_once = True
                        current = index
                    if steps >= max_steps or clock() > limit:
                        break
                if steps >= max_steps or clock() > limit:
                    break

    # Phase 2: branch-and-bound for the optimality proof (and any wins the
    # descent's one-swap neighbourhood cannot reach).
    complete = False
    if steps < max_steps and clock() <= limit:
        best_sel, best_eval, steps, complete = _branch_and_bound(
            problem, dtol, best_sel, best_eval, steps, max_steps, limit, clock
        )

    return SolveResult(
        status="optimal" if complete else "incumbent",
        selection=best_sel,
        delay=best_eval[1],
        area=best_eval[2],
        key=best_eval[0],
        steps=steps,
        improved=best_eval[0] < start_key,
    )


# -------------------------------------------------------------------- oracle
def brute_force(problem: ExtractionProblem) -> SolveResult | None:
    """Exhaustive enumeration of every selection — the test oracle.

    Exponential in the class count; only for the small fuzzed problems the
    oracle tests build.  Returns the optimum (ties broken by enumeration
    order) or ``None`` when no acyclic selection exists.
    """
    cids = sorted(problem.candidates)
    best: SolveResult | None = None
    assignment: dict[int, int] = {}

    def enumerate_from(position: int) -> None:
        nonlocal best
        if position == len(cids):
            result = evaluate_selection(problem, assignment)
            if result is not None and (best is None or result[0] < best.key):
                best = SolveResult(
                    status="optimal",
                    selection=dict(assignment),
                    delay=result[1],
                    area=result[2],
                    key=result[0],
                )
            return
        cid = cids[position]
        members = problem.candidates[cid]
        if not members:
            # No candidate at all: legal only if the class is never needed.
            enumerate_from(position + 1)
            return
        for index in range(len(members)):
            assignment[cid] = index
            enumerate_from(position + 1)
            del assignment[cid]

    enumerate_from(0)
    return best
