"""The warm-start selection builder as it was before it ran on an explicit stack.

:func:`feasible_selection` here recurses once per class along the path it
realizes, so a cone deeper than the interpreter's recursion limit raises
``RecursionError``.  The production builder
(:func:`repro.solve.ilp.feasible_selection`) walks the same choices on an
explicit stack; ``tests/solve/test_feasible_selection.py`` checks that both
return the same selection wherever this one has the depth to answer.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.solve.ilp import ExtractionProblem

__all__ = ["feasible_selection"]


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

    def build(cid: int, path: frozenset[int]) -> bool:
        if cid in chosen:
            return True
        if cid in path:
            return False
        path = path | {cid}
        for index in ranked[cid]:
            if all(build(k, path) for k in candidates[cid][index].children):
                # Children may have been memoized through this candidate's
                # own path; the memo only ever holds acyclic subtrees, so
                # the combination stays acyclic (same argument as the
                # extractor's ``_build``).
                chosen[cid] = index
                return True
        return False

    for root in problem.roots:
        if not build(root, frozenset()):
            return None
    # Cover the remaining classes too (descent may wander into them): any
    # acyclic choice is fine, and unreachable-from-roots classes never
    # affect the objective.
    for cid in candidates:
        build(cid, frozenset())
    return chosen
