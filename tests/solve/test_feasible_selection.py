"""The warm-start selection builder at any depth, with the recursive one's choices.

:func:`repro.solve.ilp.feasible_selection` realizes each class with its
preferred candidate first, then cheapest-first, failing a candidate whose
child is on the current path and reusing every class already realized.
:mod:`oracles.feasible` keeps the recursive version it replaced; the two
must pick the same candidates in the same order.  A chain deeper than the
recursion limit must still get a selection, and so must
:func:`~repro.solve.ilp.solve_extraction`, which builds its fallback
defaults through the same function even when given an incumbent.
"""

from __future__ import annotations

import random

from oracles.feasible import feasible_selection as recursive_selection
from test_ilp_oracle import random_problem

from repro.solve.ilp import (
    Candidate,
    ExtractionProblem,
    evaluate_selection,
    feasible_selection,
    solve_extraction,
)


def chain(depth: int) -> ExtractionProblem:
    """Class ``i`` needs class ``i + 1``; its cheapest candidate points back
    at ``i - 1`` instead, which the path guard must reject at every level."""
    candidates = {}
    for cid in range(depth):
        members = []
        if cid > 0:
            members.append(Candidate((cid - 1,), 0.0, 0.0, payload=f"back:{cid}"))
        if cid + 1 < depth:
            members.append(Candidate((cid + 1,), 1.0, 1.0, payload=f"down:{cid}"))
        else:
            members.append(Candidate((), 1.0, 1.0, payload=f"leaf:{cid}"))
        candidates[cid] = tuple(members)
    return ExtractionProblem(roots=(0,), candidates=candidates)


def down(depth: int) -> dict[int, int]:
    """The one acyclic selection of :func:`chain`: every class points down."""
    return {cid: 0 if cid == 0 else 1 for cid in range(depth)}


def test_matches_the_recursive_builder_on_random_programs():
    for seed in range(400):
        rng = random.Random(seed)
        problem = random_problem(rng, classes=rng.randint(2, 16))
        # Prefer a random candidate of some classes, cycle-closing ones
        # included, so the preferred-first ranking and its fallback both run.
        prefer = {
            cid: rng.choice(members).payload
            for cid, members in problem.candidates.items()
            if members and rng.random() < 0.5
        }
        for liked in (None, prefer):
            expected = recursive_selection(problem, liked)
            got = feasible_selection(problem, liked)
            assert got == expected, (seed, liked)
            if got is not None:
                assert list(got.items()) == list(expected.items()), seed


def test_matches_the_recursive_builder_on_a_shallow_chain():
    problem = chain(50)
    assert feasible_selection(problem) == recursive_selection(problem) == down(50)


def test_a_chain_deeper_than_the_recursion_limit_gets_a_selection():
    problem = chain(5_000)
    selection = feasible_selection(problem)
    assert selection == down(5_000)
    result = evaluate_selection(problem, selection)
    assert result is not None and result[1] == 5_000.0


def test_solve_extraction_handles_a_deep_chain_with_an_incumbent():
    problem = chain(500)
    result = solve_extraction(problem, incumbent=down(500))
    assert result is not None
    assert result.status == "optimal" and result.selection == down(500)
    assert (result.delay, result.area) == (500.0, 500.0)
