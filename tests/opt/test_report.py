"""Cost reporting helpers."""

import pytest
from oracles.reference import egraph_model_cost

from repro import DatapathOptimizer, OptimizerConfig
from repro.designs import DESIGNS
from repro.intervals import IntervalSet
from repro.ir import abs_, assume, gt, lzc, mux, var
from repro.opt import format_comparison, model_cost
from repro.rtl import module_to_ir


def test_model_cost_tracks_widths():
    x, y = var("x", 8), var("y", 8)
    narrow = model_cost(x + y, {"x": IntervalSet.of(0, 3), "y": IntervalSet.of(0, 3)})
    wide = model_cost(x + y)
    assert narrow.area < wide.area
    assert narrow.delay <= wide.delay


def test_model_cost_uses_refinements():
    """Figure 1 again, at the reporting layer: the constrained LZC design
    must model-cost less than the unconstrained one."""
    x, y = var("x", 8), var("y", 8)
    design = lzc(x + y, 9)
    constrained = model_cost(design, {"x": IntervalSet.of(128, 255)})
    free = model_cost(design)
    assert constrained.area <= free.area


def test_mux_condition_costs():
    x, y = var("x", 8), var("y", 8)
    cost = model_cost(mux(gt(x, y), x, y))
    assert cost.delay > 0 and cost.area > 0


class TestTreeEgraphParity:
    """The tree-level cost must agree exactly with the e-graph oracle."""

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_parity_on_registry_behavioural_trees(self, name):
        design = DESIGNS[name]
        for expr in module_to_ir(design.verilog).values():
            tree = model_cost(expr, design.input_ranges)
            oracle = egraph_model_cost(expr, design.input_ranges)
            assert (tree.delay, tree.area) == (oracle.delay, oracle.area)

    def test_parity_on_extracted_tree_with_assumes(self):
        """Extracted designs keep ASSUME wrappers — the partial-constant
        folding path must match too."""
        design = DESIGNS["fp_sub"]
        config = OptimizerConfig(iter_limit=4, node_limit=8_000, verify=False)
        result = (
            DatapathOptimizer(design.input_ranges, config)
            .optimize_verilog(design.verilog)
            .outputs["out"]
        )
        assert any(n.op.name == "ASSUME" for n in result.optimized.walk())
        tree = model_cost(result.optimized, design.input_ranges)
        oracle = egraph_model_cost(result.optimized, design.input_ranges)
        assert (tree.delay, tree.area) == (oracle.delay, oracle.area)

    def test_parity_on_hand_written_shapes(self):
        x, y = var("x", 8), var("y", 8)
        cases = [
            (mux(gt(x - 128, 0), abs_(x - 128), 0), None),
            (lzc(x + y, 9), {"x": IntervalSet.of(128, 255)}),
            (assume(x + y, gt(x, 200)), None),
            ((x << 2) >> y, {"y": IntervalSet.of(0, 3)}),
            (x * 0 + 7, None),  # folds entirely to a constant
        ]
        for expr, ranges in cases:
            tree = model_cost(expr, ranges)
            oracle = egraph_model_cost(expr, ranges)
            assert (tree.delay, tree.area) == (oracle.delay, oracle.area), expr


def test_format_comparison_table():
    text = format_comparison(
        [("fp_sub", 10.0, 100.0, 8.0, 60.0), ("other", 5.0, 50.0, 5.0, 40.0)]
    )
    assert "fp_sub" in text
    assert "-20%" in text or "-20 %" in text.replace("( ", "(")
    assert "-40%" in text.replace(" ", "") or "-40" in text
