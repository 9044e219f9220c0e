"""Pareto-front characterization: dominance, provenance, sweep parity.

The front's contract: dominance-free, never worse than the greedy sweep it
generalizes (every legacy sweep point is dominated-or-equaled by a front
point), honest provenance (``optimal`` only when the architecture space was
exhausted), and the Figure 3 sweep (:func:`sweep_points`) keeps its
area-monotonicity and ``met`` honesty unchanged.
"""

from __future__ import annotations

import pytest

from repro.ir import var
from repro.pipeline import Budget, Extract, Ingest, Pipeline, Saturate
from repro.solve.pareto import ParetoSweep, pareto_front, sweep_points
from repro.synth.sweep import min_delay_point, synthesize_at


def adder_tree():
    """Three adder instances -> 27 configurations: exhaustible."""
    a, b, c, d = (var(n, 8) for n in "abcd")
    return (a + b) + (c + d)


class FakeClock:
    def __init__(self, start: float = 0.0, tick: float = 0.0) -> None:
        self.now = start
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


# ------------------------------------------------------------------ the front
class TestParetoFront:
    def test_epsilon_front_is_dominance_free_and_proved(self):
        front = pareto_front(adder_tree(), mode="epsilon", points=8)
        assert front.status == "optimal"
        assert front.tags == 3
        assert len(front.points) >= 2
        for earlier, later in zip(front.points, front.points[1:], strict=False):
            assert earlier.delay < later.delay
            assert earlier.area > later.area  # dominated points filtered
        assert all(p.provenance == "optimal" for p in front.points)

    def test_front_contains_the_greedy_sweeps_best_points(self):
        """Every legacy sweep point is matched-or-beaten by a front point
        at its target — the front is a superset of the greedy knowledge."""
        expr = adder_tree()
        front = pareto_front(expr, mode="epsilon", points=8)
        for legacy in sweep_points(expr, points=8):
            best = front.point_for_target(legacy.target)
            assert best is not None
            assert best.area <= legacy.area + 1e-9

    def test_weighted_mode_yields_supported_subset(self):
        expr = adder_tree()
        epsilon = pareto_front(expr, mode="epsilon", points=8)
        weighted = pareto_front(expr, mode="weighted", points=8)
        assert weighted.status == "optimal"
        eps_pairs = {(p.delay, p.area) for p in epsilon.points}
        # Supported points are Pareto points: each weighted optimum is on
        # (or equal to) the epsilon-characterized front.
        for point in weighted.points:
            assert not any(
                other.delay <= point.delay
                and other.area < point.area
                for other in epsilon.points
            )
        assert {(p.delay, p.area) for p in weighted.points} <= eps_pairs | {
            (p.delay, p.area) for p in weighted.points
        }

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="pareto mode"):
            pareto_front(adder_tree(), mode="lexicographic")

    def test_eval_quota_degrades_provenance_not_correctness(self):
        front = pareto_front(adder_tree(), mode="epsilon", points=6, max_evals=3)
        assert front.status in ("incumbent", "greedy")
        for earlier, later in zip(front.points, front.points[1:], strict=False):
            assert earlier.delay < later.delay and earlier.area > later.area

    def test_expired_deadline_keeps_anchor_points(self):
        clock = FakeClock(start=10.0, tick=0.0)
        front = pareto_front(
            adder_tree(), mode="epsilon", points=6, deadline=1.0, clock=clock
        )
        assert front.status == "greedy"
        assert len(front.points) >= 1  # the forced anchors still exist


# ------------------------------------------------------------- figure 3 sweep
class TestSweepWrapper:
    def test_area_monotone_and_met_honest(self):
        expr = adder_tree()
        points = sweep_points(expr, points=8)
        assert len(points) == 8
        for earlier, later in zip(points, points[1:], strict=False):
            assert later.area <= earlier.area + 1e-9
        for point in points:
            if point.met:
                assert point.delay <= point.target + 1e-9

    def test_never_worse_than_the_pure_greedy_chain(self):
        expr = adder_tree()
        floor = min_delay_point(expr)
        for point in sweep_points(expr, points=6):
            greedy = synthesize_at(expr, point.target)
            if greedy.met:
                assert point.met
                assert point.area <= greedy.area + 1e-9
        assert floor.met

    def test_registry_design_sweep_still_monotone(self):
        """The Figure 3 regeneration path, end to end on a real design."""
        from repro.designs.registry import get_design
        from repro.rtl import module_to_ir

        design = get_design("lzc_example")
        roots = module_to_ir(design.verilog)
        expr = roots[design.output]
        points = sweep_points(expr, design.input_ranges, points=6)
        for earlier, later in zip(points, points[1:], strict=False):
            assert later.area <= earlier.area + 1e-9


# ------------------------------------------------------------------ the stage
class TestParetoSweepStage:
    def _ctx(self, *, budget=None, clock=None, mode="epsilon"):
        return Pipeline(
            [
                Ingest(roots={"out": adder_tree()}),
                Saturate(iter_limit=1, node_limit=4_000),
                Extract(),
                ParetoSweep(mode=mode),
            ]
        ).run(budget=budget, clock=clock)

    def test_artifact_and_summary_land(self):
        ctx = self._ctx()
        artifact = ctx.artifacts["pareto"]
        assert artifact["mode"] == "epsilon"
        assert "out" in artifact["fronts"]
        front = artifact["fronts"]["out"]
        assert front["points"]
        assert artifact["summary"].startswith("epsilon:")
        areas = [p["area"] for p in front["points"]]
        assert areas == sorted(areas, reverse=True)  # dominance-free

    def test_governed_stage_charges_the_ledger(self):
        clock = FakeClock(tick=0.001)
        ctx = self._ctx(budget=Budget(time_s=10**6), clock=clock)
        row = ctx.governor.ledger["pareto"]
        assert row["spent"]["time_s"] > 0

    def test_expired_deadline_never_raises(self):
        clock = FakeClock(start=0.0, tick=10.0)
        ctx = self._ctx(budget=Budget(time_s=0.5), clock=clock)
        artifact = ctx.artifacts["pareto"]
        assert artifact["status"] in ("greedy", "incumbent", "optimal")

    def test_bad_mode_rejected_at_construction(self):
        with pytest.raises(ValueError, match="pareto mode"):
            ParetoSweep(mode="nope")
