"""The one-call optimizer: a preset over the composable pipeline.

:class:`DatapathOptimizer` keeps the paper's fixed flow — ingest ->
case-split -> saturate -> extract -> verify — but since the pipeline
redesign it is a thin facade: :meth:`DatapathOptimizer.build_pipeline`
assembles :mod:`repro.pipeline` stages from an :class:`OptimizerConfig`,
and the ``optimize_*`` entrypoints run that pipeline and repackage the
context into the stable :class:`OptimizationResult` / :class:`ModuleResult`
shapes.  Anything beyond the preset (phased rule schedules, objective
sweeps, batch/parallel runs) composes the stages directly or goes through
:class:`repro.pipeline.Session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.egraph import EGraph, RunnerReport
from repro.intervals import IntervalSet
from repro.ir.expr import Expr
from repro.pipeline import (
    Budget,
    Pipeline,
    PipelineContext,
    Schedule,
    build_stages,
)
from repro.rtl import emit_verilog
from repro.synth.cost import DelayArea
from repro.verify import EquivalenceResult


@dataclass(frozen=True, kw_only=True)
class OptimizerConfig(Schedule):
    """Knobs of the tool (defaults follow the paper's settings).

    Every knob is a :class:`~repro.pipeline.schedule.Schedule` field and
    composes by the schedule's one table of rules
    (:data:`~repro.pipeline.schedule.COMPOSITION_RULES`): ``iter_limit``
    (the paper's case study uses 11 iterations, the small Section VI cases
    6), the ``split_threshold`` of ``a - (b >> c)`` (Section V splits at
    c > 1) and the Table I/II ablation switches ``enable_assume`` and
    ``enable_condition``.  ``verify`` defaults on here: the tool checks the
    optimized design against the original.  ``budget`` is the config's own:
    one accounted resource pool for the whole run (see
    :mod:`repro.pipeline.budget`) that every stage and shard draws from,
    with the per-stage knobs as ceilings; ``None`` makes the pool
    unlimited, so only the per-stage knobs bind.
    """

    budget: Budget | None = None
    verify: bool = True


@dataclass
class OptimizationResult:
    """Everything produced for one design root."""

    original: Expr
    optimized: Expr
    original_cost: DelayArea
    optimized_cost: DelayArea
    report: RunnerReport
    equivalence: EquivalenceResult | None
    runtime: float
    input_ranges: dict[str, IntervalSet] = field(default_factory=dict)

    @property
    def delay_improvement(self) -> float:
        """Fractional model-delay reduction (0.33 = 33% faster)."""
        if self.original_cost.delay == 0:
            return 0.0
        return 1.0 - self.optimized_cost.delay / self.original_cost.delay

    @property
    def area_improvement(self) -> float:
        """Fractional model-area reduction."""
        if self.original_cost.area == 0:
            return 0.0
        return 1.0 - self.optimized_cost.area / self.original_cost.area

    def emit_verilog(self, module_name: str = "optimized", output: str = "out") -> str:
        """Render the optimized design as Verilog."""
        return emit_verilog({output: self.optimized}, module_name, self.input_ranges)


@dataclass
class ModuleResult:
    """Results for a whole module (one entry per output port).

    ``egraph`` is the saturated monolithic e-graph — or ``None`` for a
    sharded run, where each cone saturated in its own (worker-local) graph
    and there is no single e-graph to hand back.  ``report`` is the last
    saturation report; per-output reports live on the
    :class:`OptimizationResult` entries (in a sharded run each output
    carries its own shard's report).
    """

    outputs: dict[str, OptimizationResult]
    egraph: EGraph | None
    report: RunnerReport
    #: The pipeline context of the run (per-stage timings, artifacts).
    context: PipelineContext | None = None

    def emit_verilog(self, module_name: str = "optimized") -> str:
        exprs = {name: r.optimized for name, r in self.outputs.items()}
        ranges = next(iter(self.outputs.values())).input_ranges if self.outputs else {}
        return emit_verilog(exprs, module_name, ranges)


class DatapathOptimizer:
    """Parse, rewrite, extract, verify — the paper's tool."""

    def __init__(
        self,
        input_ranges: Mapping[str, IntervalSet] | None = None,
        config: OptimizerConfig | None = None,
    ) -> None:
        self.input_ranges = dict(input_ranges or {})
        self.config = config if config is not None else OptimizerConfig()

    # ------------------------------------------------------------- pipeline
    def build_pipeline(
        self,
        source: str | None = None,
        roots: Mapping[str, Expr] | None = None,
        user_splits: Sequence[Expr] = (),
    ) -> Pipeline:
        """The stage list this config's one-call entrypoints run."""
        schedule = replace(
            self.config, splits=self.config.splits + tuple(user_splits)
        )
        return Pipeline(build_stages(schedule, source=source, roots=roots))

    # ----------------------------------------------------------------- entry
    def optimize_expr(
        self, expr: Expr, user_splits: Sequence[Expr] = ()
    ) -> OptimizationResult:
        """Optimize a single IR expression."""
        result = self.optimize_exprs({"out": expr}, user_splits)
        return result.outputs["out"]

    def optimize_verilog(
        self, source: str, user_splits: Sequence[Expr] = ()
    ) -> ModuleResult:
        """Optimize every output of a Verilog module (joint e-graph)."""
        pipeline = self.build_pipeline(source=source, user_splits=user_splits)
        return self._package(self._run(pipeline))

    def optimize_exprs(
        self, roots: Mapping[str, Expr], user_splits: Sequence[Expr] = ()
    ) -> ModuleResult:
        """Optimize several roots sharing one e-graph."""
        pipeline = self.build_pipeline(roots=roots, user_splits=user_splits)
        return self._package(self._run(pipeline))

    def _run(self, pipeline: Pipeline) -> PipelineContext:
        """Run a built pipeline under this config's resource governance."""
        return pipeline.run(
            input_ranges=self.input_ranges,
            budget=self.config.budget,
            budget_policy=self.config.budget_policy,
        )

    # ------------------------------------------------------------- plumbing
    def _package(self, ctx: PipelineContext) -> ModuleResult:
        """Repackage a finished context into the stable result shape."""
        report = ctx.report
        runtime = ctx.total_seconds
        # Sharded runs: each output's report is its own shard's, not the
        # last one that happened to finish.
        report_by_output = {
            output: result.reports[-1]
            for result in ctx.shard_results
            for output in result.outputs
            if result.reports
        }
        outputs = {
            name: OptimizationResult(
                original=expr,
                optimized=ctx.extracted[name],
                original_cost=ctx.original_costs[name],
                optimized_cost=ctx.optimized_costs[name],
                report=report_by_output.get(name, report),
                equivalence=ctx.equivalence.get(name),
                runtime=runtime,
                input_ranges=dict(ctx.input_ranges),
            )
            for name, expr in ctx.roots.items()
        }
        return ModuleResult(
            outputs=outputs, egraph=ctx.egraph, report=report, context=ctx
        )
