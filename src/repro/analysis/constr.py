"""Recognition of machine-interpretable constraints (eq. (4), ``Constr``).

An ``ASSUME(x, c1, ..., cn)`` refines the abstraction of ``x`` by
intersecting it with an interval decoded from the constraint e-classes.  A
constraint class contributes when *any* of its member e-nodes has one of the
shapes of eq. (4), generalized symmetrically::

    x <  k   ->  (-inf, k-1]           k <  x   ->  [k+1, +inf)
    x <= k   ->  (-inf, k]             k <= x   ->  [k, +inf)
    x >  k   ->  [k+1, +inf)           k >  x   ->  (-inf, k-1]
    x >= k   ->  [k, +inf)             k >= x   ->  (-inf, k]
    x == k   ->  [k, k]                (symmetric)
    x != k   ->  Z \\ {k}              (symmetric)
    lnot(x)  ->  [0, 0]
    x itself ->  Z \\ {0}              (the constraint *is* the expression)

where ``x`` is the guarded e-class and ``k`` any e-class whose abstraction is
a singleton (so constant folding feeds recognition).  Because a constraint
e-class holds *many* equivalent forms, "there is no need to find the single
ideal representation" (Section IV-C) — one recognizable member suffices.
"""

from __future__ import annotations

from repro.intervals import IntervalSet
from repro.ir import ops

#: Operators a member e-node must have to be a recognizable ``Constr``.
CONSTR_OPS = frozenset(
    {ops.LT, ops.LE, ops.GT, ops.GE, ops.EQ, ops.NE, ops.LNOT}
)


def constr_candidates(egraph, constraint: int, cache: dict | None) -> list:
    """Member e-nodes of a *canonical* class with a ``Constr``-shaped op.

    ``ASSUME`` transfer runs on every rebuild of every ASSUME e-node, but a
    constraint class's membership rarely changes between two runs — rescanning
    the full node set each time is ~15% of rebuild time on the paper's case
    study.  The probe (:meth:`~repro.egraph.egraph.EGraph.members`, which
    builds views of the matching members only) is cached per canonical
    class, keyed by the class's membership revision
    (:attr:`~repro.egraph.egraph.EClass.rev`).

    Cached nodes may carry non-canonical children after later unions; callers
    must resolve children through ``egraph.find`` at use time (which
    :func:`decode_constr` does anyway).  ``cache=None`` disables caching —
    the reference path the property tests compare against.
    """
    if cache is None:
        return egraph.members(constraint, CONSTR_OPS)
    rev = egraph.core.class_rev[constraint]
    entry = cache.get(constraint)
    if entry is not None and entry[0] == rev:
        return entry[1]
    candidates = egraph.members(constraint, CONSTR_OPS)
    cache[constraint] = (rev, candidates)
    return candidates


def decode_constr(
    egraph,
    analysis_name: str,
    constraint_id: int,
    target_id: int,
    cache: dict | None = None,
) -> IntervalSet | None:
    """Interval implied *for target_id* by one constraint class being true.

    Returns ``None`` when no member of the constraint class is an
    interpretable ``Constr`` about the target class.
    """
    find = egraph.find
    parent = egraph.uf_parent
    class_data = egraph.class_data
    target = target_id if parent[target_id] == target_id else find(target_id)
    constraint = (
        constraint_id if parent[constraint_id] == constraint_id
        else find(constraint_id)
    )
    implied: IntervalSet | None = None

    def tighten(extra: IntervalSet) -> None:
        nonlocal implied
        implied = extra if implied is None else implied.intersect(extra)

    if constraint == target:
        # The constraint *is* the guarded expression: it must be nonzero.
        tighten(IntervalSet.top().remove_point(0))

    # Cached candidates may hold children absorbed since the scan.
    for enode in constr_candidates(egraph, constraint, cache):
        op = enode.op
        children = enode.children
        left = children[0]
        if parent[left] != left:
            left = find(left)
        if op is ops.LNOT:
            if left == target:
                tighten(IntervalSet.point(0))
            continue
        right = children[1]
        if parent[right] != right:
            right = find(right)
        if left == target:
            # The singleton value of the other side's abstraction, if any.
            k = class_data[right][analysis_name].iset.as_point()
            if k is None:
                continue
            target_on_left = True
        elif right == target:
            k = class_data[left][analysis_name].iset.as_point()
            if k is None:
                continue
            target_on_left = False
        else:
            continue

        if op is ops.EQ:
            tighten(IntervalSet.point(k))
        elif op is ops.NE:
            tighten(IntervalSet.top().remove_point(k))
        elif (op is ops.LT and target_on_left) or (op is ops.GT and not target_on_left):
            tighten(IntervalSet.of(None, k - 1))
        elif (op is ops.LE and target_on_left) or (op is ops.GE and not target_on_left):
            tighten(IntervalSet.of(None, k))
        elif (op is ops.GT and target_on_left) or (op is ops.LT and not target_on_left):
            tighten(IntervalSet.of(k + 1, None))
        elif (op is ops.GE and target_on_left) or (op is ops.LE and not target_on_left):
            tighten(IntervalSet.of(k, None))

    return implied


def constraint_refinement(
    egraph, analysis_name: str, constraint_ids, target_id: int,
    cache: dict | None = None,
) -> IntervalSet:
    """Combined refinement for the guarded class over all constraints.

    A constraint whose own abstraction is exactly ``{0}`` can never hold, so
    the ``ASSUME`` always fails: the feasible set is empty (a dead branch —
    this is what lets the optimizer prune unreachable muxes).
    """
    implied = IntervalSet.top()
    find = egraph.find
    parent = egraph.uf_parent
    class_data = egraph.class_data
    for cid in constraint_ids:
        cond_range = class_data[
            cid if parent[cid] == cid else find(cid)
        ][analysis_name].iset
        if cond_range.as_point() == 0 or cond_range.is_empty:
            return IntervalSet.empty()
        decoded = decode_constr(egraph, analysis_name, cid, target_id, cache)
        if decoded is not None:
            implied = implied.intersect(decoded)
    return implied
