"""IR -> netlist lowering (vs the IR evaluator) and the synthesis sweep."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import IntervalSet
from repro.ir import (
    abs_, assume, bitnot, concat, eq, ge, gt, le, lnot, lzc, max_, min_,
    mux, ne, slice_, trunc, var,
)
from repro.ir.evaluate import evaluate_total, input_variables, random_env
from repro.solve.pareto import sweep_points
from repro.synth import lower_to_netlist, min_delay_point

X, Y, S = var("x", 8), var("y", 8), var("s", 3)

DESIGNS = [
    (X + Y) - (Y >> 2),
    mux(gt(X, Y), X - Y, Y - X),
    lzc(X + Y, 9),
    (X << S) + (Y >> S),
    trunc(X * Y, 10),
    abs_(X - Y),
    min_(X, Y) + max_(X, Y),
    (X & Y) | bitnot(X ^ Y, 8),
    mux(le(X, Y), eq(X, 128), ne(Y, 3)),
    concat(slice_(X, 7, 4), Y, 8),
    lnot(X - Y),
    mux(ge(X, Y), trunc(-(X - Y), 9), X + 1),
]


@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: repr(d)[:40])
def test_lowering_matches_evaluator(design):
    lowered = lower_to_netlist(design)
    widths = input_variables(design)
    rng = random.Random(11)
    for _ in range(150):
        env = random_env(widths, rng)
        assert lowered.netlist.simulate(env)["out"] == evaluate_total(design, env)


def test_assume_lowers_as_wire_with_refined_width():
    # Under the guard, x in [200, 255]: the assume gives the adder its
    # refined width but the hardware is just x + 1.
    design = mux(gt(X, 199), assume(X, gt(X, 199)) + 1, X)
    lowered = lower_to_netlist(design)
    widths = input_variables(design)
    rng = random.Random(5)
    for _ in range(200):
        env = random_env(widths, rng)
        assert lowered.netlist.simulate(env)["out"] == evaluate_total(design, env)


def test_unbounded_design_rejected():
    # A lone variable shifted by itself repeatedly stays bounded; craft an
    # unbounded range via an unconstrained expression is impossible in this
    # IR (everything derives from bounded vars), so check the empty/dead
    # path instead: an assume with an impossible constraint lowers to a stub.
    dead = mux(gt(X, 300), assume(X, gt(X, 300)), X)
    lowered = lower_to_netlist(dead)
    rng = random.Random(7)
    for _ in range(50):
        env = random_env({"x": 8}, rng)
        assert lowered.netlist.simulate(env)["out"] == env["x"]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 7))
def test_lowering_property(a, b, s):
    design = mux(gt(X, Y), (X - Y) >> S, (Y << 1) - X)
    lowered = lower_to_netlist(design)
    env = {"x": a, "y": b, "s": s}
    assert lowered.netlist.simulate(env)["out"] == evaluate_total(design, env)


class TestSweep:
    def test_min_delay_uses_fast_architectures(self):
        point = min_delay_point(X + Y)
        relaxed = sweep_points(X + Y, points=4)[-1]
        assert point.delay <= relaxed.delay
        assert point.area >= relaxed.area

    def test_sweep_monotone_and_met(self):
        design = mux(gt(X, Y), X - Y, Y - X) + (X >> S)
        points = sweep_points(design, points=6)
        areas = [p.area for p in points]
        assert all(l <= t + 1e-9 for t, l in zip(areas, areas[1:], strict=False))
        assert all(p.met for p in points)

    @pytest.mark.parametrize("design", DESIGNS, ids=lambda d: repr(d)[:40])
    def test_sweep_area_monotone_across_targets(self, design):
        """The Figure-3 seed defect, pinned at unit scope: a looser delay
        target must never return a costlier implementation than a tighter
        one (``sweep_points`` carries best-so-far across targets)."""
        points = sweep_points(design, points=8)
        areas = [p.area for p in points]
        assert all(
            loose <= tight + 1e-9 for tight, loose in zip(areas, areas[1:], strict=False)
        ), f"non-monotone sweep areas {areas}"
        # ``met`` stays honest on substituted points too.
        for point in points:
            assert point.met == (point.delay <= point.target + 1e-9)

    def test_input_ranges_shrink_hardware(self):
        constrained = {"x": IntervalSet.of(0, 15), "y": IntervalSet.of(0, 15)}
        wide = min_delay_point(X + Y)
        narrow = min_delay_point(X + Y, constrained)
        assert narrow.area < wide.area
