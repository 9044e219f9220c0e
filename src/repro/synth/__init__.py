"""Synthesis substrate: delay/area models, gate-level netlists, STA.

Two layers reproduce the paper's two uses of "hardware cost":

1. **Extraction model** (:mod:`~repro.synth.models`, :mod:`~repro.synth.cost`)
   — Section IV-D's *theoretical* model: per-operator two-input-gate depth
   and gate count as a function of operand precision, combined into the
   delay-prioritized / area-tie-break (or weighted-sum) objective used to
   pull the best design out of the e-graph.

2. **Evaluation flow** (:mod:`~repro.synth.netlist`,
   :mod:`~repro.synth.lower`, :mod:`~repro.synth.sweep`) — a gate-level
   substitute for the commercial synthesis runs of Sections V/VI: IR designs
   are lowered to 2-input-gate netlists through selectable component
   architectures (ripple / carry-select / parallel-prefix adders, barrel
   shifters, LZC trees, ...), timed with topological STA, and swept over
   delay targets to regenerate area-delay curves (Figure 3) and
   min-delay/area tables (Table III).
"""

from repro.synth.models import area_model, delay_model
from repro.synth.cost import DelayArea, DelayAreaCost
from repro.synth.netlist import Gate, Netlist, Signal
from repro.synth.lower import LoweringError, lower_to_netlist
from repro.synth.sweep import SynthesisPoint, min_delay_point
from repro.synth.treecost import dag_cost, model_cost

__all__ = [
    "delay_model",
    "area_model",
    "DelayArea",
    "DelayAreaCost",
    "Gate",
    "Netlist",
    "Signal",
    "lower_to_netlist",
    "LoweringError",
    "SynthesisPoint",
    "min_delay_point",
    "model_cost",
    "dag_cost",
]
