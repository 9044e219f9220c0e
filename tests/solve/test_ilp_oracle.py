"""Brute-force oracle tests for the extraction ILP's branch-and-bound.

The solver's claim is global optimality over the 0/1 program (DAG cost,
lazy cycle exclusion).  These tests hold it to that claim the only way that
means anything: seeded-random problems small enough to enumerate
exhaustively, solved both ways, keys compared exactly.  The fuzz problems
deliberately include shared children (where tree-greedy and DAG-optimal
diverge), extra candidates with arbitrary back edges (so the lazy cycle
constraint is exercised), and pure cycle rings (no acyclic selection at
all — both sides must say so).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.solve.ilp import (
    Candidate,
    ExtractionProblem,
    brute_force,
    evaluate_selection,
    feasible_selection,
    solve_extraction,
)


def random_problem(rng: random.Random, classes: int) -> ExtractionProblem:
    """A small random program with a guaranteed acyclic skeleton.

    Class ``i``'s first candidate only points at higher-numbered classes,
    so a feasible selection always exists; every further candidate draws
    children from the *whole* id space, so cycles (including mutual ones)
    appear and the lazy exclusion constraint does real work.
    """
    candidates: dict[int, tuple[Candidate, ...]] = {}
    for cid in range(classes):
        members = []
        forward = tuple(
            sorted(
                rng.sample(
                    range(cid + 1, classes),
                    k=rng.randint(0, min(2, classes - cid - 1)),
                )
            )
        )
        members.append(
            Candidate(
                forward,
                delay=float(rng.randint(1, 8)),
                area=float(rng.randint(1, 8)),
                payload=f"skeleton:{cid}",
            )
        )
        for extra in range(rng.randint(0, 2)):
            anywhere = tuple(
                rng.sample(range(classes), k=rng.randint(0, 2))
            )
            members.append(
                Candidate(
                    anywhere,
                    delay=float(rng.randint(0, 8)),
                    area=float(rng.randint(0, 8)),
                    payload=f"extra:{cid}:{extra}",
                )
            )
        candidates[cid] = tuple(members)
    roots = tuple(sorted(rng.sample(range(classes), k=rng.randint(1, 2))))
    return ExtractionProblem(roots=roots, candidates=candidates)


class TestOracleFuzz:
    def test_solver_matches_brute_force_on_random_programs(self):
        """200 seeded problems, exact key equality against enumeration."""
        rng = random.Random(0x51317)
        for trial in range(200):
            problem = random_problem(rng, classes=rng.randint(2, 6))
            oracle = brute_force(problem)
            result = solve_extraction(problem)
            assert oracle is not None  # the skeleton guarantees feasibility
            assert result is not None
            assert result.status == "optimal", f"trial {trial}"
            assert result.key == oracle.key, (
                f"trial {trial}: solver {result.key} != oracle {oracle.key}"
            )
            # The returned selection really evaluates to the claimed key.
            check = evaluate_selection(problem, result.selection)
            assert check is not None and check[0] == result.key

    def test_descent_off_still_matches_oracle(self):
        """The proof must not depend on the warm-improvement phase."""
        rng = random.Random(0xBEEF)
        for _ in range(60):
            problem = random_problem(rng, classes=rng.randint(2, 5))
            oracle = brute_force(problem)
            result = solve_extraction(problem, descend=False)
            assert result is not None and oracle is not None
            assert result.key == oracle.key

    def test_warm_start_never_worsens_the_answer(self):
        """Any feasible warm start — even a deliberately bad one — leaves
        the optimum unchanged and the incumbent never above it."""
        rng = random.Random(0xABC)
        for _ in range(60):
            problem = random_problem(rng, classes=rng.randint(2, 5))
            oracle = brute_force(problem)
            warm = feasible_selection(problem)
            assert warm is not None
            result = solve_extraction(problem, incumbent=warm)
            assert result is not None and oracle is not None
            assert result.key == oracle.key


class TestCycles:
    def _ring(self, size: int) -> ExtractionProblem:
        return ExtractionProblem(
            roots=(0,),
            candidates={
                cid: (Candidate(((cid + 1) % size,), 1.0, 1.0),)
                for cid in range(size)
            },
        )

    def test_pure_cycle_is_infeasible_for_both(self):
        problem = self._ring(3)
        assert brute_force(problem) is None
        assert solve_extraction(problem) is None
        assert feasible_selection(problem) is None

    def test_cycle_with_escape_takes_the_escape(self):
        """The ring is cheaper per edge, but only the expensive leaf can
        appear in an acyclic selection."""
        problem = ExtractionProblem(
            roots=(0,),
            candidates={
                0: (Candidate((1,), 1.0, 1.0), Candidate((), 9.0, 9.0)),
                1: (Candidate((0,), 1.0, 1.0),),
            },
        )
        oracle = brute_force(problem)
        result = solve_extraction(problem)
        assert oracle is not None and result is not None
        assert result.key == oracle.key
        assert result.selection[0] == 1  # the escape leaf

    def test_evaluate_rejects_cyclic_and_partial_selections(self):
        problem = self._ring(2)
        assert evaluate_selection(problem, {0: 0, 1: 0}) is None  # cycle
        assert evaluate_selection(problem, {0: 0}) is None  # missing choice


class TestSharingObjective:
    def test_dag_cost_prefers_the_shared_subterm(self):
        """The defining divergence from the greedy tree objective: a class
        reused by two parents is paid once, so sharing an expensive block
        beats duplicating cheap ones when tree cost says otherwise."""
        # root -> (a, a) via candidate 0 (delay 1, area 1); the shared `a`
        # costs 10.  Alternative: root realized as one fat leaf, area 13.
        problem = ExtractionProblem(
            roots=(0,),
            candidates={
                0: (
                    Candidate((1, 1), 1.0, 1.0),
                    Candidate((), 11.0, 13.0),
                ),
                1: (Candidate((), 10.0, 10.0),),
            },
        )
        result = solve_extraction(problem)
        assert result is not None
        # Shared: delay 11, area 11 — tree cost would have priced area 21.
        assert (result.delay, result.area) == (11.0, 11.0)
        assert result.selection[0] == 0

    def test_anytime_expiry_returns_the_incumbent_not_none(self):
        rng = random.Random(7)
        problem = random_problem(rng, classes=6)
        warm = feasible_selection(problem)
        assert warm is not None
        warm_key = evaluate_selection(problem, warm)[0]
        expired = solve_extraction(
            problem, incumbent=warm, deadline=-math.inf, clock=lambda: 0.0
        )
        assert expired is not None
        assert expired.status == "incumbent"
        assert expired.key <= warm_key  # never worse than the warm start

    def test_step_quota_expiry_is_anytime_too(self):
        rng = random.Random(8)
        problem = random_problem(rng, classes=6)
        result = solve_extraction(problem, max_steps=1)
        assert result is not None
        assert result.status == "incumbent"
        full = solve_extraction(problem)
        assert full is not None and full.key <= result.key


class TestDelayContract:
    """Delays are finite and non-negative; anything else is refused up
    front, before any search (a cycle of negative total delay would
    otherwise drive the min-delay fixpoint towards -inf forever)."""

    @pytest.mark.parametrize(
        "delay", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"]
    )
    def test_a_delay_outside_the_contract_is_refused(self, delay):
        problem = ExtractionProblem(
            roots=(0,),
            candidates={
                0: (Candidate((1,), 1.0, 1.0),),
                1: (Candidate((), delay, 1.0),),
            },
        )
        with pytest.raises(ValueError, match="finite and non-negative"):
            solve_extraction(problem)

    def test_an_overflowing_total_is_refused(self):
        problem = ExtractionProblem(
            roots=(0,),
            candidates={
                0: (Candidate((1,), 1e308, 1.0),),
                1: (Candidate((), 1e308, 1.0),),
            },
        )
        with pytest.raises(ValueError, match="finite total"):
            solve_extraction(problem)

    def test_a_negative_cycle_is_refused_not_looped_on(self):
        problem = ExtractionProblem(
            roots=(0,),
            candidates={
                0: (Candidate((1,), -1.0, 1.0), Candidate((), 5.0, 5.0)),
                1: (Candidate((0,), -1.0, 1.0), Candidate((), 5.0, 5.0)),
            },
        )
        with pytest.raises(ValueError):
            solve_extraction(problem, incumbent={0: 1, 1: 1})

    def test_zero_delays_are_within_the_contract(self):
        problem = ExtractionProblem(
            roots=(0,),
            candidates={
                0: (Candidate((1,), 0.0, 1.0),),
                1: (Candidate((), 0.0, 1.0),),
            },
        )
        result = solve_extraction(problem)
        assert result is not None and result.status == "optimal"
        assert (result.delay, result.area) == (0.0, 2.0)
