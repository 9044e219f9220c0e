"""Ablations for the paper's two mechanism claims (Sections IV/VI, E7/E8).

1. *Union-of-intervals beats single-interval (hull) analysis*: the
   interpolation kernel's sentinel remap sits in the gap between two paths'
   ranges; the union abstraction proves it dead, the hull cannot
   ("naive interval arithmetic would not suffice", Section VI).

2. *Constraint-awareness matters*: disabling the ASSUME machinery (Table I)
   or condition rewriting (Table II) forfeits the refinements — measured on
   float_to_unorm, whose shifter narrowing needs the ``e < 15`` branch
   knowledge.
"""

from __future__ import annotations

import pytest

from repro import DatapathOptimizer, OptimizerConfig
from repro.analysis import expr_ranges
from repro.designs import DESIGNS
from repro.intervals import IntervalSet
from repro.ir import ops
from repro.rtl import module_to_ir
from repro.synth import min_delay_point

pytestmark = pytest.mark.slow


def _optimize(design, **overrides):
    config = OptimizerConfig(
        iter_limit=design.iterations, node_limit=design.node_limit,
        verify=False, **overrides,
    )
    tool = DatapathOptimizer(design.input_ranges, config)
    return tool.optimize_verilog(design.verilog).outputs[design.output]


def test_union_vs_hull_on_interpolation(benchmark):
    """The gap-sentinel mux is dead under unions, alive under the hull."""
    design = DESIGNS["interpolation"]
    root = module_to_ir(design.verilog)[design.output]
    ranges = benchmark.pedantic(
        expr_ranges, args=(root,), kwargs={"input_ranges": design.input_ranges},
        iterations=1, rounds=1,
    )
    # Locate the sentinel comparison blend == 300 (the literal may be
    # wrapped in elaboration truncs, so match by range).
    sentinel = [
        n for n in root.walk()
        if n.op is ops.EQ
        and any(ranges[c].as_point() == 300 for c in n.children)
    ]
    assert sentinel, "interpolation kernel lost its sentinel compare"
    blend = next(
        c for c in sentinel[0].children if ranges[c].as_point() != 300
    )
    blend_range = ranges[blend]
    # Union abstraction: the sentinel is provably never hit...
    assert blend_range.cmp_eq(IntervalSet.point(300)).as_point() == 0
    # ...but the hull of the same range cannot prove it.
    assert blend_range.hull().cmp_eq(IntervalSet.point(300)).as_point() is None
    print(f"\nblend range {blend_range} (hull {blend_range.hull()})")


def test_interpolation_dead_code_eliminated(benchmark):
    """End to end, the optimizer removes both the sentinel mux and the
    unreachable clamp (Section VI's dead code elimination)."""
    design = DESIGNS["interpolation"]
    result = benchmark.pedantic(_optimize, args=(design,), iterations=1, rounds=1)
    consts = {
        n.value for n in result.optimized.walk() if n.is_const
    }
    assert 300 not in consts, "sentinel remap survived optimization"
    assert 1000 not in consts, "unreachable clamp survived optimization"


@pytest.mark.parametrize("switch", ["enable_assume", "enable_condition"])
def test_constraint_awareness_ablation(benchmark, switch):
    """Disabling Table I or Table II must not *improve* results, and the
    full tool must beat the no-ASSUME variant on float_to_unorm."""
    design = DESIGNS["float_to_unorm"]
    full = _optimize(design)
    ablated = benchmark.pedantic(
        _optimize, args=(design,), kwargs={switch: False}, iterations=1, rounds=1
    )
    full_point = min_delay_point(full.optimized, design.input_ranges)
    ablated_point = min_delay_point(ablated.optimized, design.input_ranges)
    print(
        f"\n{switch}=False: delay {ablated_point.delay:.1f} area "
        f"{ablated_point.area:.1f}  (full tool: {full_point.delay:.1f}/"
        f"{full_point.area:.1f})"
    )
    assert full_point.delay <= ablated_point.delay * 1.10
