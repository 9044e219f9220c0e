"""repro — constraint-aware datapath optimization using e-graphs.

A from-scratch Python reproduction of Coward, Constantinides & Drane,
*Automating Constraint-Aware Datapath Optimization using E-Graphs* (DAC
2023, arXiv:2303.01839): an RTL optimizer that couples equality saturation
with an interval-union abstract interpretation so conditional-branch
constraints unlock rewrites that are only valid on a sub-domain.

Quickstart::

    from repro import DatapathOptimizer
    from repro.designs import get_design

    design = get_design("float_to_unorm")
    tool = DatapathOptimizer(design.input_ranges)
    result = tool.optimize_verilog(design.verilog).outputs["out"]
    print(result.emit_verilog())
    print(f"delay -{result.delay_improvement:.0%}  area -{result.area_improvement:.0%}")

Batch / pipeline quickstart::

    from repro.pipeline import Session

    # One process per usable CPU where workers fork (Linux);
    # ``.run(workers=1)`` stays in-process.
    records = Session.for_designs(iter_limit=4, node_limit=8000).run()
    for record in records:
        print(record.to_json())

Package map (one subsystem per subpackage — see DESIGN.md):
``ir`` (word-level IR), ``intervals`` (the abstract domain A),
``egraph`` (equality saturation engine), ``analysis`` (abstract
interpretation incl. ASSUME refinement), ``rewrites`` (Tables I/II and
friends, composed into named rulesets), ``rtl`` (Verilog
frontend/backend), ``synth`` (delay/area models + gate-level synthesis
substitute), ``verify`` (simulation + BDD equivalence), ``pipeline``
(composable stages, batch sessions, run records), ``opt`` (the one-call
tool preset), ``designs`` (the paper's benchmarks).
"""

from repro.opt import DatapathOptimizer, OptimizerConfig
from repro.pipeline import Budget, Job, Pipeline, ResourceGovernor, RunRecord, Session

__version__ = "2.1.0"

__all__ = [
    "DatapathOptimizer",
    "OptimizerConfig",
    "Session",
    "Job",
    "RunRecord",
    "Pipeline",
    "Budget",
    "ResourceGovernor",
    "__version__",
]
