"""The branch-and-bound extraction search as it was before its bound went incremental.

:func:`solve_extraction` here recomputes the partial bound from scratch on
every step by walking the decided region from the roots
(:func:`repro.solve.ilp._partial_bound`), recursing once per search node.
The production solver (:func:`repro.solve.ilp.solve_extraction`) maintains
the same bound along its depth-first search instead and falls back to the
walk only on near-ties, on an explicit stack.  Both must return the same
:class:`~repro.solve.ilp.SolveResult` — status, steps, selection and key —
on every input, which ``tests/solve/test_ilp_parity.py`` checks.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Callable, Mapping

from repro.solve.ilp import (
    ExtractionProblem,
    SolveResult,
    _min_area,
    _min_delay_fixpoint,
    _partial_bound,
    evaluate_selection,
    feasible_selection,
)

__all__ = ["solve_extraction"]


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
    starts.
    """
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
    lb_delay = _min_delay_fixpoint(problem)
    lb_area = _min_area(problem)
    complete = True

    def search(selection: dict[int, int], decided: set[int]) -> bool:
        """Depth-first expansion; returns False when the budget expired."""
        nonlocal best_sel, best_eval, steps, complete
        steps += 1
        if steps > max_steps or clock() > limit:
            complete = False
            return False
        bound = _partial_bound(problem, selection, decided, lb_delay, lb_area)
        if bound is None:
            return True  # cyclic decided region: prune, keep searching
        bound_key, frontier = bound
        if bound_key >= best_eval[0]:
            return True  # cannot beat the incumbent
        if not frontier:
            # Fully decided needed region — ``bound`` was exact.
            result = evaluate_selection(problem, selection)
            if result is not None and result[0] < best_eval[0]:
                best_sel = dict(selection)
                best_eval = result
            return True
        branch = frontier[0]
        members = problem.candidates[branch]
        order = sorted(
            range(len(members)), key=lambda i: (members[i].delay, members[i].area, i)
        )
        for index in order:
            selection[branch] = index
            decided.add(branch)
            alive = search(selection, decided)
            decided.discard(branch)
            del selection[branch]
            if not alive:
                return False
        return True

    if steps < max_steps and clock() <= limit:
        # The DFS depth is bounded by the class count, not the DAG depth —
        # give the interpreter headroom on big cones instead of dying.
        needed_limit = 3 * problem.size + 1000
        old_limit = sys.getrecursionlimit()
        if old_limit < needed_limit:
            sys.setrecursionlimit(needed_limit)
        try:
            search({}, set())
        finally:
            if old_limit < needed_limit:
                sys.setrecursionlimit(old_limit)
    else:
        complete = False

    return SolveResult(
        status="optimal" if complete else "incumbent",
        selection=best_sel,
        delay=best_eval[1],
        area=best_eval[2],
        key=best_eval[0],
        steps=steps,
        improved=best_eval[0] < start_key,
    )
