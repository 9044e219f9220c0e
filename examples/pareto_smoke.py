"""Pareto-front smoke: the solver's front is dominance-free and never
worse than the greedy sweep it generalizes.

Run:  PYTHONPATH=src python examples/pareto_smoke.py

Characterizes the area/delay trade-off of a registry design two ways —
the greedy ``sweep_points`` series (critical-path adder upgrades) and
the epsilon-constraint :func:`repro.solve.pareto.pareto_front` over the
full architecture-assignment space — then checks the contract CI cares
about:

* the front is **dominance-free**: strictly increasing delay, strictly
  decreasing area, no point shadowed by another;
* the front **contains the greedy sweep's best points**: for every legacy
  sweep target, the front's best feasible point is at least as cheap;
* provenance is honest: ``optimal`` only when the space was exhausted.
"""

from repro.designs.registry import get_design
from repro.rtl import module_to_ir
from repro.solve.pareto import pareto_front, sweep_points

DESIGN = "lzc_example"
POINTS = 6


def main() -> None:
    design = get_design(DESIGN)
    expr = module_to_ir(design.verilog)[design.output]

    front = pareto_front(
        expr, design.input_ranges, mode="epsilon", points=POINTS
    )
    legacy = sweep_points(expr, design.input_ranges, points=POINTS)

    print(f"=== {DESIGN}: epsilon front ({front.status}) ===")
    for point in front.points:
        print(
            f"  target {point.target:7.2f}  delay {point.delay:7.2f}  "
            f"area {point.area:8.1f}  [{point.provenance}]"
        )

    # Dominance-free: delay strictly rises, area strictly falls.
    for earlier, later in zip(front.points, front.points[1:], strict=False):
        assert earlier.delay < later.delay, (earlier, later)
        assert earlier.area > later.area, (earlier, later)

    # Superset of the greedy sweep: every legacy point matched-or-beaten.
    for sweep_point in legacy:
        best = front.point_for_target(sweep_point.target)
        assert best is not None, sweep_point
        assert best.area <= sweep_point.area + 1e-9, (
            f"front point {best} worse than greedy sweep {sweep_point}"
        )

    assert front.status in ("optimal", "incumbent", "greedy")
    print(
        f"front: {len(front.points)} points over {front.tags} adder "
        f"tag(s), {front.evals} lowerings, status {front.status}; "
        f"greedy sweep matched-or-beaten at all {len(legacy)} targets"
    )


if __name__ == "__main__":
    main()
