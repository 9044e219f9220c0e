"""The end-to-end RTL optimization tool (Section IV).

:class:`~repro.opt.optimizer.DatapathOptimizer` wires the whole paper
together: Verilog (or IR) in, e-graph + interval analysis + constraint-aware
rewriting, delay-prioritized extraction, equivalence check, Verilog out.
"""

from repro.opt.optimizer import (
    DatapathOptimizer,
    ModuleResult,
    OptimizationResult,
    OptimizerConfig,
)
from repro.opt.report import format_comparison, model_cost

__all__ = [
    "DatapathOptimizer",
    "OptimizerConfig",
    "OptimizationResult",
    "ModuleResult",
    "format_comparison",
    "model_cost",
]
