"""Intra-design sharding: fan output cones through per-shard pipelines.

The :class:`Shard` stage slices the ingested design into shared-nothing
cones (per output, or clustered by shared-subexpression weight — see
:mod:`repro.analysis.sharding`), runs each cone through its *own*
Ingest → [CaseSplit] → Saturate → Extract pipeline — its own e-graph, its
own analysis state, its own budget — and :class:`MergeShards` folds the
extracted expressions, costs and saturation reports back into the enclosing
context, where ``Verify`` / ``Emit`` /
:func:`~repro.pipeline.session.record_from_context` work exactly as in a
monolithic run.

Because shards are plain picklable value objects (:class:`ShardTask`), the
fan-out optionally goes over a :class:`~concurrent.futures.ProcessPoolExecutor`
— and since :class:`~repro.pipeline.session.Session` already fans *designs*
out over processes, a batch of large designs parallelizes at two levels:
designs across the pool, cones within each design.  When the nested pool
cannot start (daemonic worker processes cannot have children) the stage
falls back to inline execution and says so: the run records carry
``pool: "inline" | "process"`` so perf numbers are never silently
serialized.

Budget-aware orchestration (see :mod:`repro.pipeline.budget`): the stage
splits the enclosing run's remaining governor pool across shards by a named
policy (``fair`` / ``weighted`` by cone size / ``adaptive``, where a fast
shard's unspent wall time flows to the slow ones).  Every child inherits
the parent's *absolute* deadline, which is the fix for the classic
sharded-deadline bug: a slow shard no longer restarts the whole
``time_limit``, so an N-shard run cannot overshoot its deadline N-fold.

Why this scales: equality saturation is super-linear in e-graph size, and a
node limit is a *shared* budget monolithically — one greedy cone starves
every other output.  Shard-per-cone gives each output the full budget and
never pays for cross-cone e-node collisions (ROVER's decomposition insight,
applied to the paper's flow).
"""

from __future__ import annotations

import copy
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from repro.analysis import DatapathAnalysis
from repro.analysis.sharding import ConeShard, ShardPlan, plan_shards, should_shard
from repro.egraph import EGraph, absorb_graph
from repro.egraph.runner import RunnerReport
from repro.ir.cones import cone_inputs
from repro.ir.expr import Expr
from repro.pipeline.budget import (
    Budget,
    BudgetPool,
    allocator_for,
    concurrent_children,
    spend_dict,
)
from repro.pipeline.context import PipelineContext
from repro.pipeline.schedule import Schedule, monolithic_tail
from repro.pipeline.stages import Extract, Ingest, Saturate
from repro.synth.cost import DelayArea

#: E-nodes the stitch saturation may add over the absorbed shard graphs
#: when its stage sets no node limit of its own.
STITCH_NODE_HEADROOM = 10_000


@dataclass(frozen=True)
class ShardTask:
    """One unit of shard work (shippable to a worker process).

    ``budget`` is this shard's allocation out of the fan-out's shared pool
    (unlimited by default).  Its absolute deadline stays meaningful across
    the process boundary: ``time.monotonic`` is CLOCK_MONOTONIC, shared by
    all processes on the machine.
    """

    shard: ConeShard
    schedule: Schedule
    budget: Budget = Budget()


@dataclass
class ShardResult:
    """Picklable outcome of one shard's pipeline run."""

    name: str
    outputs: tuple[str, ...]
    extracted: dict[str, Expr]
    original_costs: dict[str, DelayArea]
    optimized_costs: dict[str, DelayArea]
    reports: list[RunnerReport]
    wall_s: float
    stage_timings: dict[str, float] = field(default_factory=dict)
    #: Allocated-vs-spent ledger row: ``{"allocated": {...}?, "spent": {...}}``.
    budget: dict = field(default_factory=dict)
    #: Extraction outcome inside the shard: "complete" | "deadline" (empty
    #: for pre-anytime results).
    extract_status: str = ""
    #: The shard's saturated e-graph and its output → class-id map, shipped
    #: only when the schedule set ``ship_egraph`` (None/{} otherwise).
    egraph: EGraph | None = None
    root_ids: dict[str, int] = field(default_factory=dict)

    @property
    def stop_reasons(self) -> tuple[str, ...]:
        return tuple(report.stop_reason.value for report in self.reports)


def sliced_splits(
    splits: tuple[Expr, ...], shard: ConeShard
) -> tuple[Expr, ...]:
    """The designer case splits whose support this shard's cone can see.

    A condition over inputs the cone never reads cannot specialize anything
    inside the shard (its ASSUME branches refine variables no cone operator
    consumes), so it is sliced away rather than dragging foreign inputs
    into the shard's e-graph.
    """
    if not splits:
        return ()
    visible = set(cone_inputs(shard.roots.values()))
    return tuple(
        split for split in splits if set(cone_inputs([split])) <= visible
    )


def shard_pipeline_stages(
    schedule: Schedule,
    splits: tuple[Expr, ...] = (),
) -> list:
    """The stage list a schedule expands to inside a shard: the monolithic
    tail of :func:`~repro.pipeline.schedule.build_stages` over the shard's
    own designer ``splits``, without the whole run's artifact save.

    The shard's budget allocation is not intersected here:
    :func:`run_shard_task` installs a shard-local governor over it and every
    stage (saturation *and* extraction) draws from it.
    """
    return monolithic_tail(
        replace(schedule, splits=tuple(splits), save_egraph=None)
    )


def run_shard_task(task: ShardTask, clock=None) -> ShardResult:
    """Run one shard to a result.  Top-level so process pools can pickle it.

    The task runs its whole pipeline under its own
    :class:`~repro.pipeline.budget.ResourceGovernor`, so the shard's
    *extraction* draws from the shard's pool share too (the anytime
    extractor races the shard's deadline and checkpoints on expiry),
    instead of only saturation being governed.  ``clock`` injects a fake
    wall clock for deterministic ledger tests; pool dispatch omits it.
    """
    from repro.pipeline.pipeline import Pipeline  # package-import cycle

    timer = clock if clock is not None else time.perf_counter
    started = timer()
    splits = sliced_splits(task.schedule.splits, task.shard)
    ctx = Pipeline(
        [
            Ingest(roots=task.shard.roots),
            *shard_pipeline_stages(task.schedule, splits=splits),
        ]
    ).run(
        input_ranges=task.shard.input_ranges,
        budget=task.budget,
        budget_policy=task.schedule.budget_policy,
        clock=clock,
    )
    wall = timer() - started
    governor = ctx.governor
    ledger = {
        "spent": spend_dict(
            time_s=wall,
            nodes=governor.spent_nodes,
            iters=governor.spent_iters,
            matches=governor.spent_matches,
            bdd_nodes=governor.spent_bdd_nodes,
        ),
        "allocated": task.budget.as_dict(include_deadline=False),
    }
    return ShardResult(
        name=task.shard.name,
        outputs=task.shard.outputs,
        extracted=dict(ctx.extracted),
        original_costs=dict(ctx.original_costs),
        optimized_costs=dict(ctx.optimized_costs),
        reports=list(ctx.reports),
        wall_s=wall,
        stage_timings=ctx.stage_timings(),
        budget=ledger,
        extract_status=",".join(
            sorted({report.status for report in ctx.extract_reports})
        ),
        egraph=ctx.egraph if task.schedule.ship_egraph else None,
        root_ids=dict(ctx.root_ids) if task.schedule.ship_egraph else {},
    )


def _nested_pool_available() -> bool:
    """Whether a nested process pool can start here.

    Daemonic workers (e.g. ``multiprocessing.Pool`` children) cannot have
    children of their own; trying raises deep inside the executor, so the
    shard fan-out would die — or worse, silently serialize without saying
    so.  The check is explicit and the chosen substrate is recorded.
    """
    return not multiprocessing.current_process().daemon


class Shard:
    """Slice the ingested design into cones and optimize each independently.

    The :class:`~repro.pipeline.schedule.Schedule` says how: ``shards=0``
    shards per output, ``shards=K`` clusters cones by shared-subexpression
    weight down to at most ``K`` shards.  With ``auto_shard_nodes`` set,
    sharding only engages when the design is multi-output *and* its DAG
    size reaches the threshold — smaller designs run as a single shard
    (equivalent to the monolithic flow), so the stage can sit
    unconditionally in a pipeline.  ``shard_parallel`` fans shards out over
    a process pool (shards are shared-nothing by construction), falling
    back to inline execution — recorded, not silent — when a nested pool
    cannot start.  Each shard runs the schedule's monolithic tail
    (:func:`shard_pipeline_stages`).

    Shards draw per-shard allocations from the context governor's pool:
    serially through a live :class:`~repro.pipeline.budget.BudgetPool`
    (the adaptive policy recycles fast shards' slack), concurrently as
    quota shares under the parent's absolute deadline (wall time is not
    additive across concurrent shards — the deadline is the binding
    constraint).
    """

    name = "shard"
    #: Charges per-shard ledger rows itself; the pipeline must not add a
    #: generic wall-time row on top.
    self_charging = True

    def __init__(
        self, schedule: Schedule | None = None, max_workers: int | None = None
    ) -> None:
        self.schedule = schedule if schedule is not None else Schedule()
        self.max_shards = self.schedule.shards or None
        self.auto_threshold = self.schedule.auto_shard_nodes
        self.parallel = self.schedule.shard_parallel
        self.max_workers = max_workers

    def plan(self, ctx: PipelineContext) -> ShardPlan:
        """The shard plan this stage would execute on the context."""
        if not ctx.roots:
            raise RuntimeError("Shard needs an Ingest stage to run first")
        if self.auto_threshold is not None and not should_shard(
            ctx.roots, self.auto_threshold
        ):
            return plan_shards(ctx.roots, ctx.input_ranges, max_shards=1)
        return plan_shards(ctx.roots, ctx.input_ranges, max_shards=self.max_shards)

    def run(self, ctx: PipelineContext) -> None:
        plan = self.plan(ctx)
        ctx.shard_plan = plan
        schedule = self.schedule
        if schedule.splits:
            # Per-shard slicing must *cover* the designer's splits: a
            # condition whose inputs span several cones lands in no shard,
            # and silently dropping it would be worse than refusing (fewer
            # shards keep the spanning inputs in one cone).
            covered: set[Expr] = set()
            for shard in plan.shards:
                covered.update(sliced_splits(schedule.splits, shard))
            dropped = [s for s in schedule.splits if s not in covered]
            if dropped:
                raise ValueError(
                    f"case splits {dropped} read inputs spanning multiple "
                    "shards, so no shard's cone can see them — cluster to "
                    "fewer shards or run these splits monolithically"
                )
        governor = ctx.governor
        # The shared pool this fan-out draws from.
        parent = governor.remaining()
        clock = governor.clock
        allocator = allocator_for(schedule.budget_policy)
        weights = [float(max(shard.size, 1)) for shard in plan.shards]
        tasks = [ShardTask(shard, schedule) for shard in plan.shards]

        results: list[ShardResult] | None = None
        pool_kind = "inline"
        if self.parallel and len(tasks) > 1 and _nested_pool_available():
            results = self._run_process_pool(tasks, parent, allocator, weights, clock)
            if results is not None:
                pool_kind = "process"
        if results is None:
            results = self._run_inline(tasks, parent, allocator, weights, clock)
        ctx.shard_results = results
        ctx.artifacts["shard_pool"] = pool_kind
        for result in results:
            spent = result.budget.get("spent", {})
            governor.charge(
                f"shard:{result.name}",
                time_s=spent.get("time_s", result.wall_s),
                nodes=spent.get("nodes", 0),
                iters=spent.get("iters", 0),
                matches=spent.get("matches", 0),
                bdd_nodes=spent.get("bdd_nodes", 0),
                allocated=result.budget.get("allocated"),
            )

    # ------------------------------------------------------------- substrates
    def _run_process_pool(
        self, tasks, parent, allocator, weights, clock
    ) -> list[ShardResult] | None:
        """Concurrent fan-out; ``None`` means "fall back to inline".

        Concurrent shards race the parent's absolute deadline rather than
        receiving wall-time slices (wall time is not additive across
        concurrency); countable quotas split by the policy's shares.
        """
        children = concurrent_children(parent, weights, allocator, clock())
        budgeted = [
            replace(task, budget=child)
            for task, child in zip(tasks, children, strict=True)
        ]
        try:
            with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
                return list(pool.map(run_shard_task, budgeted))
        except OSError:
            # Pool never came up (fd/process limits, sandboxing): the
            # shards are pure functions, rerunning inline is safe.
            return None

    def _run_inline(
        self, tasks, parent, allocator, weights, clock
    ) -> list[ShardResult]:
        """Serial fan-out with live draw/settle budget accounting."""
        pool = BudgetPool(parent, weights, allocator, clock=clock)
        results = []
        for task in tasks:
            child = pool.draw()
            result = run_shard_task(replace(task, budget=child))
            spent = result.budget.get("spent", {})
            pool.settle(
                nodes=spent.get("nodes", 0),
                iters=spent.get("iters", 0),
                matches=spent.get("matches", 0),
                bdd_nodes=spent.get("bdd_nodes", 0),
            )
            results.append(result)
        return results


class MergeShards:
    """Fold per-shard results back into the enclosing context.

    After the merge the context looks exactly like a monolithic
    Saturate+Extract run over every output — downstream ``Verify``/``Emit``
    stages and record condensation apply unchanged.  Per-shard wall times
    land in ``ctx.artifacts["shard_walls"]`` (and from there in
    ``RunRecord.shard_walls``); per-shard allocated-vs-spent rows are the
    ``shard:<name>`` ledger rows ``Shard`` already charged; saturation
    reports append in shard order.

    ``stitch`` (a ``Saturate`` stage) adds the governed cross-cone **stitch
    phase** after the plain merge: the shipped shard e-graphs
    (``Schedule.ship_egraph``) are absorbed into one graph seeded with the
    full design's roots — the hashcons re-unites the shared subexpressions
    per-output cones explored separately — then that short budgeted
    saturation (``stitch`` ledger row; a ``node_limit`` of ``None`` means
    :data:`STITCH_NODE_HEADROOM` over the absorbed graph) lets rewrites
    cross the old cone boundaries, and a re-extraction
    (``stitch-extract`` row) harvests the recovered sharing.  Per output the
    *better* of stitched vs plain-merge survives, so stitching is never
    costlier than the plain merge by construction; the phase's outcome lands
    in ``ctx.artifacts["stitch"]``/``["stitch_status"]`` and the stitched
    graph stays on ``ctx.egraph`` for ``SaveEGraph``.
    """

    name = "merge-shards"
    #: Charges its own ledger row (net of the inner stitch stages, which
    #: charge ``stitch``/``stitch-extract`` themselves).
    self_charging = True

    def __init__(self, stitch: Saturate | None = None) -> None:
        self.stitch = stitch

    def run(self, ctx: PipelineContext) -> None:
        governor = ctx.governor
        started = governor.clock()
        if not ctx.shard_results:
            raise RuntimeError("MergeShards needs a Shard stage to run first")
        merged_outputs: set[str] = set()
        for result in ctx.shard_results:
            overlap = merged_outputs & set(result.outputs)
            if overlap:
                raise RuntimeError(
                    f"shard {result.name!r} re-merges outputs {sorted(overlap)}"
                )
            merged_outputs.update(result.outputs)
            ctx.extracted.update(result.extracted)
            ctx.original_costs.update(result.original_costs)
            ctx.optimized_costs.update(result.optimized_costs)
            ctx.reports.extend(result.reports)
        missing = set(ctx.roots) - merged_outputs
        if missing:
            raise RuntimeError(f"shard plan dropped outputs {sorted(missing)}")
        ctx.artifacts["shard_walls"] = {
            result.name: round(result.wall_s, 6) for result in ctx.shard_results
        }
        inner = self._stitch(ctx) if self.stitch is not None else 0.0
        # Own row: the merge bookkeeping only — the stitch stages have
        # already charged their rows, double-charging their wall here
        # would sink the ledger-coverage invariant from above.
        governor.charge(
            self.name, time_s=max(0.0, governor.clock() - started - inner)
        )

    # ----------------------------------------------------------- stitch phase
    def _stitch(self, ctx: PipelineContext) -> float:
        """Run the stitch phase; returns the inner stages' wall seconds."""
        shipped = [r for r in ctx.shard_results if r.egraph is not None]
        if not shipped or len(shipped) != len(ctx.shard_results):
            # A schedule without ship_egraph (or a partial ship) cannot
            # stitch soundly — the plain merge stands.
            ctx.artifacts["stitch_status"] = "skipped:no-graphs"
            return 0.0
        plain_extracted = dict(ctx.extracted)
        plain_costs = dict(ctx.optimized_costs)
        # One graph, the whole design: seeding with the original roots
        # restores every cross-cone shared subexpression, and absorbing the
        # shard graphs layers each cone's proven equivalences on top.
        egraph = EGraph([DatapathAnalysis(ctx.input_ranges)])
        root_ids = {
            name: egraph.add_expr(expr) for name, expr in ctx.roots.items()
        }
        egraph.rebuild()
        for result in shipped:
            mapping = absorb_graph(egraph, result.egraph)
            for output, shard_root in result.root_ids.items():
                src = result.egraph.find(shard_root)
                if output in root_ids and src in mapping:
                    egraph.union(root_ids[output], mapping[src])
        egraph.rebuild()
        ctx.egraph = egraph
        ctx.root_ids = root_ids
        saturate = self.stitch
        if saturate.node_limit is None:
            # Headroom over the absorbed size: the budget caps *absolute*
            # graph size, and the stitched graph starts near the shards' sum.
            saturate = copy.copy(saturate)
            saturate.node_limit = egraph.node_count + STITCH_NODE_HEADROOM
        saturate.run(ctx)
        Extract(label="stitch-extract").run(ctx)
        inner = ctx.reports[-1].total_time + ctx.extract_reports[-1].total_time
        # Keep-min guarantee: per output the better of stitched vs plain
        # merge survives, so the phase can only close the gap to monolithic,
        # never widen it.
        improved = 0
        reverted = 0
        for output, base in plain_costs.items():
            stitched = ctx.optimized_costs.get(output)
            if stitched is None or stitched.key > base.key:
                ctx.extracted[output] = plain_extracted[output]
                ctx.optimized_costs[output] = base
                reverted += 1
            elif stitched.key < base.key:
                improved += 1
        status = f"stitched:improved={improved}/{len(plain_costs)}"
        ctx.artifacts["stitch_status"] = status
        ctx.artifacts["stitch"] = {
            "improved": improved,
            "reverted": reverted,
            "outputs": len(plain_costs),
            "nodes": egraph.node_count,
            "classes": egraph.class_count,
        }
        return inner
