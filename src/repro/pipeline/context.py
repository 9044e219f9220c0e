"""The shared mutable state threaded through pipeline stages.

A :class:`PipelineContext` is created empty (plus input constraints), and
each :class:`~repro.pipeline.stages.Stage` reads what earlier stages
produced and writes what it computes: ``Ingest`` fills ``roots`` and the
e-graph, ``Saturate`` appends a runner report, ``Extract`` fills the
optimized trees and their model costs, ``Verify`` the equivalence verdicts,
``Emit`` the Verilog artifact.  ``timings`` records per-stage wall time in
execution order (stage labels may repeat in phased schedules).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.egraph import EGraph
from repro.egraph.runner import RunnerReport
from repro.intervals import IntervalSet
from repro.ir.expr import Expr
from repro.pipeline.budget import Budget, ResourceGovernor
from repro.synth.cost import DelayArea
from repro.verify import EquivalenceResult


@dataclass
class PipelineContext:
    """Everything a pipeline run reads and produces."""

    #: Input-domain constraints (the paper's "input constraints").
    input_ranges: dict[str, IntervalSet] = field(default_factory=dict)
    #: Verilog source for :class:`~repro.pipeline.stages.Ingest` (optional —
    #: IR roots may be supplied directly instead).
    source: str | None = None
    #: Named design roots (one entry per output port).
    roots: dict[str, Expr] = field(default_factory=dict)
    #: The shared e-graph (built by ``Ingest``).
    egraph: EGraph | None = None
    #: Root e-class ids, parallel to ``roots``.
    root_ids: dict[str, int] = field(default_factory=dict)
    #: One report per ``Saturate`` stage, in execution order.
    reports: list[RunnerReport] = field(default_factory=list)
    #: Extracted (optimized) trees, parallel to ``roots``.
    extracted: dict[str, Expr] = field(default_factory=dict)
    #: One :class:`~repro.egraph.extract.ExtractReport` per ``Extract``
    #: stage, in execution order (``status="deadline"`` marks an anytime
    #: checkpoint cut short by the budget).
    extract_reports: list[Any] = field(default_factory=list)
    #: Section IV-D model cost of the behavioural tree, per output.
    original_costs: dict[str, DelayArea] = field(default_factory=dict)
    #: Model cost of the extracted tree, per output.
    optimized_costs: dict[str, DelayArea] = field(default_factory=dict)
    #: Equivalence verdicts, per output (filled by ``Verify``).
    equivalence: dict[str, EquivalenceResult] = field(default_factory=dict)
    #: ``(stage label, seconds)`` in execution order.
    timings: list[tuple[str, float]] = field(default_factory=list)
    #: Free-form stage outputs (e.g. ``Emit`` stores ``"verilog"``).
    artifacts: dict[str, Any] = field(default_factory=dict)
    #: The run's resource governor (one accounted budget pool all stages
    #: draw from; see :mod:`repro.pipeline.budget`).  The default pool is
    #: unlimited, ``Budget()``: every stage's own knobs bind, and the
    #: ledger still records each stage's spend.
    governor: ResourceGovernor = field(
        default_factory=lambda: ResourceGovernor(Budget())
    )
    #: Cone decomposition chosen by a ``Shard`` stage
    #: (a :class:`repro.analysis.sharding.ShardPlan`), if one ran.
    shard_plan: Any = None
    #: Per-shard outcomes (:class:`repro.pipeline.shard.ShardResult`), in
    #: plan order; ``MergeShards`` folds these into the fields above.
    shard_results: list[Any] = field(default_factory=list)

    # ------------------------------------------------------------- accessors
    @property
    def report(self) -> RunnerReport | None:
        """The last saturation report (the common single-phase case)."""
        return self.reports[-1] if self.reports else None

    @property
    def total_seconds(self) -> float:
        """Wall time across all stages run so far."""
        return sum(seconds for _label, seconds in self.timings)

    def stage_timings(self) -> dict[str, float]:
        """Per-stage seconds keyed by label (repeats suffixed ``#2``, ...)."""
        out: dict[str, float] = {}
        seen: dict[str, int] = {}
        for label, seconds in self.timings:
            count = seen.get(label, 0) + 1
            seen[label] = count
            out[label if count == 1 else f"{label}#{count}"] = seconds
        return out

    def require_egraph(self) -> EGraph:
        """The e-graph, or a clear error when ``Ingest`` has not run."""
        if self.egraph is None:
            raise RuntimeError(
                "pipeline context has no e-graph yet — run an Ingest stage "
                "before rewriting/extraction stages"
            )
        return self.egraph
