"""Composable optimization pipelines (the tool, taken apart).

The paper's fixed flow — ingest RTL, constraint-aware equality saturation,
cost-based extraction, verification — generalizes (as in its successor
ROVER) into stages over a shared context:

>>> from repro.pipeline import Ingest, Saturate, Extract, Pipeline
>>> from repro.rewrites import structural_ruleset, compose_rules
>>> pipe = Pipeline([
...     Ingest(source=verilog),
...     Saturate(structural_ruleset(), iter_limit=2),   # phase 1
...     Saturate(compose_rules(), iter_limit=4),        # phase 2
...     Extract(),
... ])                                                  # doctest: +SKIP
>>> ctx = pipe.run(input_ranges={"x": IntervalSet.of(128, 255)})  # doctest: +SKIP

Every entry point turns its knobs into stages through one
:class:`Schedule` and :func:`build_stages`, which holds the one table of
composition rules.  Batch work goes through :class:`Session` — named
:class:`Job`\\ s over the designs registry, fanned out over a process pool
by default, each producing a JSON-round-trippable :class:`RunRecord`.

:class:`~repro.opt.optimizer.DatapathOptimizer` remains the one-call preset
over exactly these stages.
"""

from repro.pipeline.budget import (
    ALLOCATORS,
    AdaptiveSplit,
    Budget,
    BudgetAllocator,
    BudgetPool,
    FairSplit,
    ResourceGovernor,
    VerifyAwareSplit,
    WeightedSplit,
    allocator_for,
)
from repro.pipeline.context import PipelineContext
from repro.pipeline.pipeline import Pipeline, run_stages
from repro.pipeline.session import (
    Job,
    RunRecord,
    Session,
    execute_job,
    job_design,
    job_stages,
    record_from_context,
    resolve_design,
)
from repro.pipeline.schedule import (
    COMPOSITION_RULES,
    CompositionError,
    Schedule,
    build_stages,
    is_sharded,
    job_schedule_key,
)
from repro.pipeline.shard import (
    MergeShards,
    Shard,
    ShardResult,
    ShardTask,
    run_shard_task,
)
from repro.pipeline.stages import (
    CaseSplit,
    Emit,
    Extract,
    Ingest,
    SaveEGraph,
    Saturate,
    Stage,
    Verify,
    WarmStart,
)

__all__ = [
    "Budget",
    "BudgetAllocator",
    "BudgetPool",
    "FairSplit",
    "WeightedSplit",
    "AdaptiveSplit",
    "VerifyAwareSplit",
    "ALLOCATORS",
    "allocator_for",
    "ResourceGovernor",
    "PipelineContext",
    "Pipeline",
    "run_stages",
    "Stage",
    "Ingest",
    "WarmStart",
    "CaseSplit",
    "Saturate",
    "SaveEGraph",
    "Extract",
    "Verify",
    "Emit",
    "Shard",
    "MergeShards",
    "ShardTask",
    "ShardResult",
    "run_shard_task",
    "Schedule",
    "build_stages",
    "CompositionError",
    "COMPOSITION_RULES",
    "is_sharded",
    "Session",
    "Job",
    "RunRecord",
    "execute_job",
    "job_design",
    "job_schedule_key",
    "job_stages",
    "record_from_context",
    "resolve_design",
]
