"""Deadline and trial-order contracts of each Verify strategy, on fake clocks.

A governed check polls its clock once per exhaustive or random trial and
at two cadences inside the BDD build (every 256 node insertions, every
4096 ``ite`` calls).  These tests pin where each poll lands, how many
trials ran, which counterexample comes first and how the BDD numbers its
nodes, with values recorded before simulation was compiled and the ``ite``
flattened: faster kernels must stop, count and answer exactly as before.
"""

from __future__ import annotations

import pytest

from repro.intervals import IntervalSet
from repro.ir import eq, lt, mux, var
from repro.verify import BDD, BddDeadlineError, BddLimitError, check_equivalent


class FakeClock:
    """A deterministic monotonic clock: every read advances by ``tick``
    (same shape as the budget tests', local to avoid cross-directory
    test-module imports under xdist)."""

    def __init__(self, start: float = 0.0, tick: float = 0.0) -> None:
        self.now = start
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


X6, Y2 = var("x", 6), var("y", 2)
X16, A16, B16 = var("x", 16), var("a", 16), var("b", 16)
WIDE = {"exhaustive_budget": 1 << 10}  # keeps 16-bit inputs off the sweep


class TestExhaustive:
    def test_deadline_overshoots_by_at_most_one_trial(self):
        """One poll per trial: with a clock ticking 1s per read, a 5.5s
        deadline admits exactly five trials and one read past it."""
        clock = FakeClock(tick=1.0)
        result = check_equivalent(X6 + 1, X6 + 1, deadline=5.5, clock=clock)
        assert (result.equivalent, result.method, result.trials) == (None, "timeout", 5)
        assert clock.now == 6.0

    def test_first_counterexample_in_sweep_order(self):
        """Sorted names, the last varying fastest: {x: 1, y: 2} is trial 7."""
        wrong = mux(eq(X6, 1), mux(eq(Y2, 2), 0, X6 + Y2), X6 + Y2)
        result = check_equivalent(X6 + Y2, wrong)
        assert (result.equivalent, result.method, result.trials) == (False, "exhaustive", 7)
        assert result.counterexample == {"x": 1, "y": 2}
        assert list(result.counterexample) == ["x", "y"]

    def test_generous_deadline_completes_the_proof(self):
        clock = FakeClock(tick=1.0)
        result = check_equivalent(X6 + Y2, Y2 + X6, deadline=1e9, clock=clock)
        assert (result.equivalent, result.method, result.trials) == (True, "exhaustive", 256)
        assert clock.now == 256.0


class TestRandom:
    def test_deadline_overshoots_by_at_most_one_trial(self):
        clock = FakeClock(tick=1.0)
        result = check_equivalent(
            A16 + B16, B16 + A16, bdd_node_limit=0, deadline=7.5, clock=clock, **WIDE
        )
        assert (result.equivalent, result.method, result.trials) == (None, "timeout", 7)
        assert clock.now == 8.0

    @pytest.mark.parametrize(
        "ranges, seed, trials, counterexample",
        [
            (None, 0, 17, {"x": 149}),
            (
                {"x": IntervalSet.of(0, 999).union(IntervalSet.of(5000, 5999))},
                7, 2, {"x": 404},
            ),
        ],
    )
    def test_rng_draws_pin_the_first_counterexample(self, ranges, seed, trials, counterexample):
        wrong = mux(lt(X16, 600), X16 + 1, X16)
        result = check_equivalent(X16, wrong, ranges, bdd_node_limit=0, seed=seed, **WIDE)
        assert (result.equivalent, result.method, result.trials) == (False, "random", trials)
        assert result.counterexample == counterexample


def xor_of_pairs(bdd: BDD, n: int) -> int:
    """``XOR_i (v_i & v_{i+n})``: exponential under the natural order."""
    f = bdd.FALSE
    for i in range(n):
        f = bdd.apply_xor(f, bdd.apply_and(bdd.var(i), bdd.var(i + n)))
    return f


class TestBdd:
    def test_node_numbering_is_stable(self):
        bdd = BDD()
        assert xor_of_pairs(bdd, 10) == 3592
        assert len(bdd) == 3593

    def test_polls_without_expiry_change_nothing(self):
        clock = FakeClock(tick=1.0)
        bdd = BDD(deadline=1e9, clock=clock)
        assert xor_of_pairs(bdd, 10) == 3592
        assert len(bdd) == 3593
        # 14 insertion polls (node ids 256, 512, ...) plus one per 4096 ites.
        assert (bdd._ite_calls, clock.now) == (7172, 15.0)

    def test_insertion_poll_fires_at_the_same_node(self):
        clock = FakeClock(tick=1.0)
        bdd = BDD(deadline=2.5, clock=clock)
        with pytest.raises(BddDeadlineError) as stop:
            xor_of_pairs(bdd, 12)
        assert stop.value.nodes == len(bdd) == 768
        assert (bdd._ite_calls, clock.now) == (1539, 3.0)

    def test_ite_poll_fires_at_the_same_call(self):
        """Memo hits insert nothing; only the 4096-call cadence sees them."""
        clock = FakeClock(tick=1.0)
        bdd = BDD(deadline=0.5, clock=clock)
        x, y = bdd.var(0), bdd.var(1)
        with pytest.raises(BddDeadlineError) as stop:
            for _ in range(5000):
                bdd.apply_and(x, y)
        assert stop.value.nodes == len(bdd) == 5
        assert (bdd._ite_calls, clock.now) == (4096, 1.0)

    def test_node_limit_stops_at_the_cap(self):
        bdd = BDD(node_limit=1000)
        with pytest.raises(BddLimitError) as stop:
            xor_of_pairs(bdd, 12)
        assert stop.value.nodes == len(bdd) == 1000

    def test_check_charges_the_abandoned_proof(self):
        """A BDD stopped by the deadline degrades to random trials, which
        find the deadline already passed: a timeout with the node spend."""
        clock = FakeClock(tick=1.0)
        result = check_equivalent(A16 * B16, B16 * A16, deadline=3.5, clock=clock)
        assert (result.equivalent, result.method, result.trials) == (None, "timeout", 0)
        assert result.bdd_nodes == 1024
        assert clock.now == 5.0
