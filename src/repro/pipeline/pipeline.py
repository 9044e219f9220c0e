"""Ordered stage execution with per-stage timing."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.intervals import IntervalSet
from repro.pipeline.budget import Budget, ResourceGovernor
from repro.pipeline.context import PipelineContext
from repro.pipeline.stages import Ingest, Stage


class Pipeline:
    """An ordered list of stages run over one shared context.

    A pipeline is reusable: each :meth:`run` call gets a fresh context
    unless one is passed in (to resume — e.g. re-extract a saturated
    e-graph under a different objective, append a verification pass, ...).
    """

    def __init__(self, stages: Iterable[Stage]) -> None:
        self.stages: list[Stage] = list(stages)

    def __repr__(self) -> str:
        return f"Pipeline({' -> '.join(s.name for s in self.stages)})"

    def extended(self, *stages: Stage) -> "Pipeline":
        """A new pipeline with extra stages appended."""
        return Pipeline([*self.stages, *stages])

    def run(
        self,
        ctx: PipelineContext | None = None,
        input_ranges: dict[str, IntervalSet] | None = None,
        budget: Budget | None = None,
        budget_policy: str = "fair",
        clock: Callable[[], float] | None = None,
    ) -> PipelineContext:
        """Run every stage in order; returns the (mutated) context.

        Every run is governed: the context's
        :class:`~repro.pipeline.budget.ResourceGovernor` is the one
        accounted pool all stages draw from (sharing a single absolute
        deadline), and its allocated-vs-spent ledger lands in the run
        record.  ``budget`` or ``clock`` installs a fresh governor over
        ``budget`` (unlimited when omitted); otherwise the context keeps
        its own, whose default pool is unlimited.  ``clock`` is injectable
        for deterministic deadline tests and also times the stages.
        """
        if ctx is None:
            ctx = PipelineContext(input_ranges=dict(input_ranges or {}))
        elif input_ranges is not None:
            reingests = bool(self.stages) and isinstance(self.stages[0], Ingest)
            if (
                ctx.egraph is not None
                and not reingests
                and dict(input_ranges) != ctx.input_ranges
            ):
                # The e-graph's analysis was seeded with the old ranges at
                # Ingest; swapping ranges under the saturated state would
                # desync extraction and verification from it.
                raise ValueError(
                    "cannot change input_ranges on a context that already "
                    "holds an e-graph — start the pipeline with an Ingest "
                    "stage (or use a fresh context) instead"
                )
            ctx.input_ranges = dict(input_ranges)
        if budget is not None or clock is not None:
            ctx.governor = ResourceGovernor(
                budget or Budget(), clock=clock, policy=budget_policy
            )
        timer = ctx.governor.clock
        for stage in self.stages:
            started = timer()
            try:
                stage.run(ctx)
            finally:
                # Record the timing even when the stage raises (a strict
                # Verify failure, an engine error): failed runs must stay
                # diagnosable from the run-record trajectory format.
                elapsed = timer() - started
                ctx.timings.append((stage.name, elapsed))
                if not getattr(stage, "self_charging", False):
                    # Close the wall ledger: stages without their own
                    # governor accounting (Ingest, Emit, ...) still consume
                    # the pool — an unledgered stage is an escape hatch
                    # from the budget ceiling.
                    ctx.governor.charge(stage.name, time_s=elapsed)
        return ctx


def run_stages(
    stages: Sequence[Stage],
    input_ranges: dict[str, IntervalSet] | None = None,
    **kwargs,
) -> PipelineContext:
    """One-shot convenience: ``Pipeline(stages).run(...)``."""
    return Pipeline(stages).run(input_ranges=input_ranges, **kwargs)
