"""Governed exact-optimization subsystem: ILP extraction + Pareto fronts.

Three modules, all stdlib-only (no external solver — the repo's constraint
is a pure-python toolchain):

* :mod:`~repro.solve.ilp` — e-graph extraction stated as the 0/1 integer
  program it really is (node/class variables, root/choice/implication rows,
  lazy cycle exclusion), solved by an anytime branch-and-bound that warm
  starts from the greedy extractor's selection;
* :mod:`~repro.solve.extract_opt` — the pipeline stage plugging that solver
  in behind the existing ``Extract`` hook, per output cone, with greedy
  fallback and governor-charged spend;
* :mod:`~repro.solve.pareto` — genuine Pareto-front characterization of the
  area-delay trade-off (epsilon-constraint and weighted-scalarization
  modes) with per-point provenance, and the Figure 3 delay-target sweep
  (:func:`~repro.solve.pareto.sweep_points`).
"""

from repro.solve.ilp import (
    Candidate,
    ExtractionProblem,
    SolveResult,
    brute_force,
    evaluate_selection,
    extraction_problem,
    feasible_selection,
    solve_extraction,
)
from repro.solve.extract_opt import OptimalExtract
from repro.solve.pareto import (
    ParetoFront,
    ParetoPoint,
    ParetoSweep,
    pareto_front,
    sweep_points,
)

__all__ = [
    "Candidate",
    "ExtractionProblem",
    "SolveResult",
    "extraction_problem",
    "evaluate_selection",
    "feasible_selection",
    "solve_extraction",
    "brute_force",
    "OptimalExtract",
    "ParetoPoint",
    "ParetoFront",
    "ParetoSweep",
    "pareto_front",
    "sweep_points",
]
