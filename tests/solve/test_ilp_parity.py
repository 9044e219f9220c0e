"""Parity of the branch-and-bound with the walk-per-step search it replaced.

:func:`repro.solve.ilp.solve_extraction` maintains the partial bound along
its depth-first search and re-walks the decided region only on near-ties;
:mod:`oracles.ilp_walk` keeps the search that re-walked it on every step.
The two must be the same search: same status, steps, selection, key,
delay, area and ``improved`` flag on every input and every quota.  These
input sets hold them to it:

* seeded random programs (shared children, back edges, self-loops) and
  pure cycle rings, at small and unlimited step quotas, descent on and off,
  with and without a warm start;
* a hand-built near-tie whose areas sum differently in the walk's
  pre-order than in evaluation order, so the incremental key cannot decide
  and the walk must;
* two hand-built programs for the path bound that spares a decide its
  arrival propagation: a delay near-tie only the delay tolerance keeps
  from a wrong prune, and a shared child whose longest root path is not
  its DFS-tree path;
* the ILP cones ``OptimalExtract`` builds for ``fp_sub`` and
  ``interpolation`` at ``--iters 4`` with the greedy warm start (the
  50,000-step quota, the stage's own, runs under ``slow``).
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from oracles.ilp_walk import solve_extraction as walk_solve
from test_ilp_oracle import random_problem

import repro.solve.extract_opt as extract_opt
import repro.solve.ilp as ilp
from repro.designs import DESIGNS
from repro.pipeline import Budget, Job, Pipeline, PipelineContext
from repro.pipeline.session import job_stages
from repro.solve.ilp import (
    Candidate,
    ExtractionProblem,
    feasible_selection,
    solve_extraction,
)

QUOTAS = (1, 3, 10, 50, 200_000)


def outcome(result):
    """Everything a caller can observe of one solve."""
    if result is None:
        return None
    return (
        result.status,
        result.steps,
        result.selection,
        result.key,
        result.delay,
        result.area,
        result.improved,
    )


def assert_parity(problem, incumbent=None, **kwargs):
    expected = walk_solve(problem, incumbent=incumbent, **kwargs)
    got = solve_extraction(problem, incumbent=incumbent, **kwargs)
    assert outcome(got) == outcome(expected), kwargs
    return got


def ring(size: int, escape: bool) -> ExtractionProblem:
    """A cycle ring, optionally with one expensive leaf to escape it."""
    candidates = {
        cid: (Candidate(((cid + 1) % size,), 1.0, 1.0),) for cid in range(size)
    }
    if escape:
        candidates[size - 1] += (Candidate((), 9.0, 9.0),)
    return ExtractionProblem(roots=(0,), candidates=candidates)


class TestRandomPrograms:
    @pytest.mark.parametrize("block", range(4))
    def test_same_search_on_seeded_programs(self, block):
        for seed in range(block * 50, block * 50 + 50):
            rng = random.Random(seed)
            problem = random_problem(rng, classes=rng.randint(2, 12))
            warm = feasible_selection(problem)
            for quota in QUOTAS:
                for descend in (True, False):
                    for incumbent in (None, warm):
                        assert_parity(
                            problem,
                            incumbent,
                            max_steps=quota,
                            descend=descend,
                        )

    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    @pytest.mark.parametrize("escape", [False, True])
    def test_same_search_on_cycle_rings(self, size, escape):
        for quota in QUOTAS:
            for descend in (True, False):
                assert_parity(ring(size, escape), max_steps=quota, descend=descend)


class TestNearTie:
    """The walk adds areas up in pre-order (root, then children left to
    right) and :func:`~repro.solve.ilp.evaluate_selection` in post-order,
    so the only selection's bound, 0.6, sits one ulp below its own key: the
    walk expands every node down to that leaf, and the search must too,
    even where its decide-order sum has rounded up to the incumbent's."""

    PROBLEM = ExtractionProblem(
        roots=(0,),
        candidates={
            0: (Candidate((1, 2), 1.0, 0.3),),
            1: (Candidate((), 1.0, 0.2),),
            2: (Candidate((), 1.0, 0.1),),
        },
    )
    WARM = {0: 0, 1: 0, 2: 0}

    def test_the_sums_really_differ(self):
        assert 0.3 + 0.2 + 0.1 == 0.6  # the walk's pre-order
        assert 0.2 + 0.1 + 0.3 == 0.6000000000000001  # the evaluation's
        result = solve_extraction(self.PROBLEM, incumbent=self.WARM)
        assert result is not None and result.area == 0.6000000000000001
        assert result.status == "optimal" and result.steps == 4

    def test_the_walk_arbitrates_and_the_search_matches(self, monkeypatch):
        walks = []
        walk = ilp._partial_bound

        def counted(*args):
            walks.append(dict(args[1]))
            return walk(*args)

        monkeypatch.setattr(ilp, "_partial_bound", counted)
        for descend in (True, False):
            for quota in QUOTAS:
                for incumbent in (None, self.WARM):
                    assert_parity(
                        self.PROBLEM, incumbent, max_steps=quota, descend=descend
                    )
        # The tied nodes ask the walk, partial ones among them.
        assert {0: 0, 1: 0} in walks


class TestDelayNearTie:
    """The path bound adds ``up[X]`` (the own delays on ``X``'s DFS-tree
    path, summed from the root down) to ``X``'s arrival, while the exact
    delay nests the same additions from ``X`` up.  Deciding the leaf of
    0.1 → 0.2 → 0.3 gives the path bound 0.3 + (0.1 + 0.2) =
    0.6000000000000001, exactly the incumbent's delay, but the exact delay
    0.1 + (0.2 + 0.3) = 0.6 beats it.  Only the delay tolerance keeps that
    decide from being pruned on the path bound: the search must
    propagate, take the exact test and find the improvement, as the walk
    does."""

    PROBLEM = ExtractionProblem(
        roots=(0,),
        candidates={
            0: (Candidate((1,), 0.1, 0.0), Candidate((3,), 0.0, 0.0)),
            1: (Candidate((2,), 0.2, 0.0),),
            2: (Candidate((), 0.3, 0.0),),
            3: (Candidate((), 0.6000000000000001, 0.0),),
        },
    )
    #: The one-hop path through class 3: delay 0.6000000000000001.
    WARM = {0: 1, 1: 0, 2: 0, 3: 0}

    def test_the_sums_really_differ(self):
        assert 0.3 + (0.1 + 0.2) == 0.6000000000000001  # the path bound
        assert 0.1 + (0.2 + 0.3) == 0.6  # the exact arrival
        assert 0.0 < ilp._delay_tolerance(self.PROBLEM) < 1e-12
        result = solve_extraction(self.PROBLEM, incumbent=self.WARM, descend=False)
        assert result is not None and result.improved
        assert result.status == "optimal" and result.delay == 0.6
        assert result.selection == {0: 0, 1: 0, 2: 0}

    def test_the_search_matches_the_walk(self):
        for descend in (True, False):
            for quota in QUOTAS:
                for incumbent in (None, self.WARM):
                    assert_parity(
                        self.PROBLEM, incumbent, max_steps=quota, descend=descend
                    )


class TestLongestPathOffTheTree:
    """Class 3 is shared by class 1 (its DFS-tree parent, reached first)
    and class 2, whose own delay is larger, so 3's longest root path
    (0 → 2 → 3) is not its tree path (0 → 1 → 3).  Deciding 3 = the slow
    leaf gives the path bound 2.0 + 2.0 = 4.0, strictly below the exact
    delay 5.0 that runs through undecided class 2's lower bound: the
    decide must propagate.  Deciding class 2 afterwards prices the slow
    path exactly (6.0) and prunes it; the search must match the walk at
    every quota."""

    PROBLEM = ExtractionProblem(
        roots=(0,),
        candidates={
            0: (Candidate((1, 2), 1.0, 1.0),),
            1: (Candidate((3,), 1.0, 1.0),),
            2: (Candidate((3,), 3.0, 1.0),),
            3: (Candidate((), 1.0, 10.0), Candidate((), 2.0, 1.0)),
        },
    )
    #: The slow leaf: delay 6.0, area 4.0, worse than the fast leaf's
    #: (5.0, 13.0) under the default key.
    WARM = {0: 0, 1: 0, 2: 0, 3: 1}

    def test_the_tree_path_is_not_the_longest(self):
        result = solve_extraction(self.PROBLEM, incumbent=self.WARM, descend=False)
        assert result is not None and result.improved
        assert result.status == "optimal"
        assert (result.delay, result.area) == (5.0, 13.0)

    def test_the_search_matches_the_walk(self):
        for descend in (True, False):
            for quota in QUOTAS:
                for incumbent in (None, self.WARM):
                    assert_parity(
                        self.PROBLEM, incumbent, max_steps=quota, descend=descend
                    )


# ------------------------------------------------------------ real cones
def registry_cone(design: str):
    """The (problem, greedy warm start) ``OptimalExtract`` solves for the
    design's single output cone at ``--iters 4``."""
    captured = []

    def capture(problem, incumbent=None, **kwargs):
        captured.append((problem, dict(incumbent)))
        return solve_extraction(problem, incumbent=incumbent, max_steps=1)

    job = Job(
        name=design,
        design=design,
        iter_limit=4,
        verify=False,
        extract_objective="ilp",
    )
    with mock.patch.object(extract_opt, "solve_extraction", capture):
        Pipeline(job_stages(job, DESIGNS[design])).run(
            ctx=PipelineContext(), budget=Budget(), clock=lambda: 0.0
        )
    [cone] = captured
    return cone


@pytest.fixture(scope="module", params=["fp_sub", "interpolation"])
def cone(request):
    return registry_cone(request.param)


class TestRegistryCones:
    @pytest.mark.parametrize("quota", [1, 700, 5_000])
    def test_same_search_on_registry_cones(self, cone, quota):
        problem, warm = cone
        assert_parity(problem, warm, max_steps=quota)

    @pytest.mark.slow
    def test_same_search_at_the_stage_quota(self, cone):
        problem, warm = cone
        result = assert_parity(problem, warm, max_steps=50_000)
        assert result.steps == 50_001 and result.status == "incumbent"
