"""Batch optimization sessions over the designs registry.

A :class:`Session` runs a list of named :class:`Job`\\ s — each referencing
a registry design plus schedule knobs — and returns one JSON-serializable
:class:`RunRecord` per job.  Jobs are plain picklable value objects, so a
session fans a batch out over a
:class:`~concurrent.futures.ProcessPoolExecutor` sized to the usable cores
(``workers``, see :class:`Session`); each worker reconstructs the design
from the registry by name (IR trees and interned interval sets never cross
the process boundary).

The record stream is the bench trajectory format: ``RunRecord.to_json`` /
``from_json`` round-trip exactly, and ``benchmarks/test_bench_perf.py``
appends records to ``BENCH_perf.json`` through it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Iterable, Sequence

from repro.designs.registry import DESIGNS, Design, design_roots, get_design
from repro.ir.expr import subterms
from repro.pipeline.budget import (
    Budget,
    BudgetPool,
    allocator_for,
    concurrent_children,
)
from repro.pipeline.context import PipelineContext
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.schedule import Schedule, build_stages
from repro.pipeline.shard import _nested_pool_available
from repro.pipeline.stages import Stage
from repro.rtl import module_to_ir
from repro.synth.treecost import dag_cost


@dataclass(frozen=True)
class Job:
    """One named unit of batch work: a registry design plus schedule knobs.

    The knobs shared with :class:`~repro.pipeline.schedule.Schedule` mean
    what they mean there, and compose by its one table of rules; unset
    ``iter_limit``/``node_limit`` take the design's own limits
    (:meth:`schedule`).  The rest belong to the job alone.

    ``budget`` puts the whole job under one accounted
    :class:`~repro.pipeline.budget.Budget` (every stage — including the
    anytime ``Extract`` and the interruptible ``Verify`` — and every shard,
    split by ``budget_policy``, draws from that pool and races one
    deadline); the classic per-stage knobs still apply as ceilings.  A
    session-level budget intersects in on top (see :class:`Session`).
    """

    name: str
    design: str
    iter_limit: int | None = None
    node_limit: int | None = None
    time_limit: float = 60.0
    split_threshold: int | None = 1
    enable_assume: bool = True
    enable_condition: bool = True
    verify: bool = False
    phases: tuple[tuple[str, ...], ...] = ()
    phase_iters: int = 4
    shards: int = 0
    auto_shard_nodes: int | None = None
    shard_parallel: bool = False
    budget: Budget | None = None
    budget_policy: str = "adaptive"
    verify_budget: Budget | None = None
    #: Inline Verilog for ad-hoc submissions.  When set, ``design`` is a
    #: *label* (used for warm-start family lookup and reporting), not a
    #: registry key; input ranges are inherited from the same-label registry
    #: design for the variables that survive the edit (see
    #: :func:`resolve_design`).
    source: str | None = None
    warm_start: str | None = None
    save_egraph: str | None = None
    stitch: bool = False
    extract_objective: str = "greedy"
    pareto: str = ""

    def schedule(self, design: Design) -> Schedule:
        """This job's stage-shaping knobs; unset limits take ``design``'s."""
        return Schedule.of(
            self,
            iter_limit=design.iterations if self.iter_limit is None else self.iter_limit,
            node_limit=design.node_limit if self.node_limit is None else self.node_limit,
        )


def resolve_design(job: Job) -> tuple[dict, dict]:
    """``(roots, input_ranges)`` of the job's design — source-aware.

    Registry jobs resolve through the (memoized) registry.  Ad-hoc
    ``job.source`` jobs elaborate their Verilog directly; when the label
    also names a registry design, that design's input-range constraints are
    inherited for every variable still present in the edited source — an
    edit that only restructures logic over the same inputs keeps the exact
    range assumptions, which is what makes its warm start compatible.
    """
    if job.source is None:
        design = get_design(job.design)
        return design_roots(job.design), design.input_ranges
    roots = module_to_ir(job.source)
    ranges: dict = {}
    if job.design in DESIGNS:
        base = DESIGNS[job.design].input_ranges
        variables = {
            node.var_name
            for node in subterms(tuple(roots.values()))
            if node.is_var
        }
        ranges = {name: iset for name, iset in base.items() if name in variables}
    return roots, ranges


def job_design(job: Job) -> Design:
    """The :class:`Design` a job runs (ad-hoc sources get a synthetic one)."""
    if job.source is None:
        return get_design(job.design)
    roots, ranges = resolve_design(job)
    output = "out" if "out" in roots else sorted(roots)[0]
    return Design(
        name=job.design,
        verilog=job.source,
        output=output,
        input_ranges=ranges,
        description="ad-hoc source submission",
    )


@dataclass
class RunRecord:
    """JSON-serializable outcome of one job (the bench trajectory row)."""

    job: str
    design: str
    output: str = ""
    status: str = "ok"  # "ok" | "error"
    stop_reason: str = ""
    iterations: int = 0
    nodes: int = 0
    classes: int = 0
    #: Final e-graph nodes per saturation-wall second (0.0 when no
    #: saturation ran) — the raw-speed engine metric the perf series guards.
    nodes_per_s: float = 0.0
    original_delay: float = 0.0
    original_area: float = 0.0
    optimized_delay: float = 0.0
    optimized_area: float = 0.0
    delay_improvement: float = 0.0
    area_improvement: float = 0.0
    verified: bool | None = None
    runtime_s: float = 0.0
    stage_timings: dict[str, float] = field(default_factory=dict)
    #: Number of intra-design shards the run split into (0 = monolithic).
    shards: int = 0
    #: Per-shard wall seconds, keyed by shard name (empty when monolithic).
    shard_walls: dict[str, float] = field(default_factory=dict)
    #: Which substrate ran the shards: "process", or "inline" when serial /
    #: when a nested pool could not start (empty for monolithic runs) — so
    #: perf records never pass off a silently-serialized run as parallel.
    shard_pool: str = ""
    #: Resource-governance ledger: the run's budget pool plus
    #: allocated-vs-spent per stage and per shard (empty when ungoverned).
    budget: dict = field(default_factory=dict)
    #: Anytime-extraction outcome: "complete", "deadline", or a
    #: comma-joined set when shards disagree (empty for pre-anytime runs).
    extract_status: str = ""
    #: How the condensed output's equivalence was established:
    #: "exhaustive" | "bdd" | "random" | "timeout" (empty when unverified).
    verify_method: str = ""
    #: Service provenance: which tenant submitted the job ("" for direct
    #: Session runs), whether the record came out of the result cache
    #: instead of a fresh pipeline run, and how long the job sat queued
    #: before dispatch.  Absent from pre-service records — ``from_dict``
    #: defaults them, so old ``BENCH_perf.json`` entries still load.
    tenant: str = ""
    cache_hit: bool = False
    queue_wait_s: float = 0.0
    #: Warm-start provenance: ``"hit:<digest12>"`` when saturation was
    #: seeded from a persisted e-graph, ``"cold:<reason>"`` when a requested
    #: warm start fell back, ``""`` when none was requested.
    warm_start: str = ""
    #: Stitch-phase provenance (``""`` when the phase didn't run).
    stitch: str = ""
    #: Which extraction objective produced the result: "greedy" | "ilp"
    #: (empty for pre-solver records — ``from_dict`` defaults it).
    extract_objective: str = ""
    #: Pareto-characterization summary ("mode:status:points", "" when the
    #: stage didn't run).
    pareto: str = ""
    #: DAG cost of the condensed output (shared subterms priced once) — the
    #: objective the ILP extractor optimizes; ``optimized_delay``/``area``
    #: stay the legacy tree costs.  0.0 for pre-solver records.
    dag_delay: float = 0.0
    dag_area: float = 0.0
    error: str | None = None

    # -------------------------------------------------------- serialization
    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls.from_dict(json.loads(text))


def job_stages(job: Job, design: Design) -> list[Stage]:
    """The stage list a job's schedule expands to (shared with the CLI)."""
    return build_stages(job.schedule(design), source=design.verilog)


def record_from_context(
    job_name: str, design_name: str, output: str, ctx: PipelineContext
) -> RunRecord:
    """Condense a finished pipeline context into one record."""
    report = ctx.report
    before = ctx.original_costs.get(output)
    after = ctx.optimized_costs.get(output)
    verdict = ctx.equivalence.get(output)
    delay_gain = area_gain = 0.0
    if before is not None and after is not None:
        if before.delay:
            delay_gain = 1.0 - after.delay / before.delay
        if before.area:
            area_gain = 1.0 - after.area / before.area
    if ctx.shard_results:
        # Sharded run: sizes sum over the shards' final e-graphs, and the
        # stop reason aggregates (a single value when the shards agree).
        finals = [r.reports[-1] for r in ctx.shard_results if r.reports]
        nodes = sum(r.nodes for r in finals)
        classes = sum(r.classes for r in finals)
        stop_reason = ",".join(
            sorted({r.stop_reason.value for r in finals})
        )
    else:
        if report is not None and report.iterations:
            nodes, classes = report.nodes, report.classes
        elif ctx.egraph is not None:
            # No saturation iteration ran (e.g. an exact warm-start hit):
            # the graph is the one loaded, not an empty one.
            nodes, classes = ctx.egraph.node_count, ctx.egraph.class_count
        else:
            nodes = classes = 0
        stop_reason = report.stop_reason.value if report else ""
    saturate_s = sum(r.total_time for r in ctx.reports)
    nodes_per_s = round(nodes / saturate_s, 1) if saturate_s else 0.0
    stage_timings = ctx.stage_timings()
    for result in ctx.shard_results:
        # Fold each shard's internal breakdown in under its shard name —
        # sharded records keep the saturate/extract split monolithic ones
        # have.
        for label, seconds in result.stage_timings.items():
            stage_timings[f"{result.name}/{label}"] = seconds
    if ctx.governor is not None:
        budget_block = ctx.governor.as_dict()
    elif "shard_budgets" in ctx.artifacts:
        budget_block = {"stages": dict(ctx.artifacts["shard_budgets"])}
    else:
        budget_block = {}
    extract_statuses = {r.status for r in ctx.extract_reports}
    extract_statuses.update(
        r.extract_status for r in ctx.shard_results if r.extract_status
    )
    dag_delay = dag_area = 0.0
    extracted = ctx.extracted.get(output)
    if extracted is not None:
        try:
            dag = dag_cost(extracted, ctx.input_ranges)
            dag_delay, dag_area = dag.delay, dag.area
        except RecursionError:  # pathological depth: keep the record usable
            pass
    return RunRecord(
        job=job_name,
        design=design_name,
        output=output,
        status="ok",
        stop_reason=stop_reason,
        iterations=sum(len(r.iterations) for r in ctx.reports),
        nodes=nodes,
        classes=classes,
        nodes_per_s=nodes_per_s,
        original_delay=before.delay if before else 0.0,
        original_area=before.area if before else 0.0,
        optimized_delay=after.delay if after else 0.0,
        optimized_area=after.area if after else 0.0,
        delay_improvement=delay_gain,
        area_improvement=area_gain,
        verified=verdict.equivalent if verdict is not None else None,
        runtime_s=ctx.total_seconds,
        stage_timings=stage_timings,
        shards=len(ctx.shard_results),
        shard_walls=dict(ctx.artifacts.get("shard_walls", {})),
        shard_pool=ctx.artifacts.get("shard_pool", ""),
        budget=budget_block,
        extract_status=",".join(sorted(extract_statuses)),
        verify_method=verdict.method if verdict is not None else "",
        warm_start=str(ctx.artifacts.get("warm_start", "")),
        stitch=str(ctx.artifacts.get("stitch_status", "")),
        extract_objective=str(ctx.artifacts.get("extract_objective", "")),
        pareto=str(ctx.artifacts.get("pareto", {}).get("summary", ""))
        if isinstance(ctx.artifacts.get("pareto"), dict)
        else "",
        dag_delay=dag_delay,
        dag_area=dag_area,
    )


def execute_job(job: Job) -> RunRecord:
    """Run one job to a record.  Top-level so process pools can pickle it;
    failures come back as ``status="error"`` records, never exceptions.

    A failing run still reports whatever the pipeline recorded before the
    raise — per-stage wall timings and the governor's allocated-vs-spent
    ledger — so e.g. a strict ``Verify`` failure is diagnosable from the
    trajectory format (which stage burned the time, what spend the budget
    saw) instead of reducing to a bare error string.
    """
    ctx = PipelineContext()
    try:
        design = job_design(job)
        ctx.input_ranges = dict(design.input_ranges)
        Pipeline(job_stages(job, design)).run(
            ctx=ctx,
            budget=job.budget,
            budget_policy=job.budget_policy,
        )
        return record_from_context(job.name, job.design, design.output, ctx)
    except Exception as err:  # exercised via bad jobs and strict Verify
        return _error_record(
            job,
            err,
            runtime_s=ctx.total_seconds,
            stage_timings=ctx.stage_timings(),
            budget=ctx.governor.as_dict() if ctx.governor is not None else {},
        )


def _error_record(job: Job, err: BaseException, **fields) -> RunRecord:
    """The ``status="error"`` record of a job that failed with ``err``."""
    return RunRecord(
        job=job.name,
        design=job.design,
        status="error",
        error=f"{type(err).__name__}: {err}",
        **fields,
    )


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _forks() -> bool:
    """Whether pool workers start by ``fork``, so they never re-import the
    caller's ``__main__`` (``spawn``/``forkserver`` workers do, and die in
    a script that calls :meth:`Session.run` without a main guard)."""
    method = multiprocessing.get_start_method(allow_none=True)
    return (method or multiprocessing.get_all_start_methods()[0]) == "fork"


def _run_on_pool(jobs: Sequence[Job], workers: int) -> list[RunRecord] | None:
    """One record per job, in job order, from a ``workers``-process pool.

    ``None`` means the pool could not start (fd/process limits,
    sandboxing) and the caller should run the jobs in-process.  A worker
    that dies (OOM-killed, signalled) breaks the pool: every job still on
    it gets an error record naming ``BrokenProcessPool``.
    """
    futures: list[Future] = []
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for job in jobs:
                futures.append(pool.submit(execute_job, job))
    except OSError:
        return None
    except BrokenProcessPool as err:  # a worker died while jobs were queueing
        unqueued = [_error_record(job, err) for job in jobs[len(futures):]]
    else:
        unqueued = []
    records = []
    for job, future in zip(jobs[:len(futures)], futures, strict=True):
        try:
            records.append(future.result())
        except Exception as err:  # the pool broke, or the job did not pickle
            records.append(_error_record(job, err))
    return records + unqueued


class Session:
    """A batch of named jobs over the designs registry.

    >>> session = Session.for_designs(iter_limit=4, node_limit=8000)
    >>> records = session.run()   # doctest: +SKIP

    ``workers`` sizes the process pool the jobs fan out over: ``1`` runs
    every job in this process, ``N > 1`` uses up to ``N`` processes, and
    ``None`` (the default) picks one process per usable CPU, capped at the
    number of jobs.  A one-job batch, a one-CPU machine, a daemonic process
    (which cannot have children) and a pool that fails to start all run
    in-process.  Records always come back in job order, and a job whose
    worker dies comes back as an error record.

    ``None`` stays in-process in two more cases.  Where pool workers would
    not start by ``fork`` (``spawn`` on macOS and Windows), because those
    workers re-import the caller's ``__main__``: a script that calls
    :meth:`run` at top level would fail every job.  And under a session
    ``budget``, so that the ``budget_policy`` split below holds.  Pass
    ``workers`` explicitly to pool anyway.  ``fork`` is unsafe in a
    process that runs threads: keep ``workers=1`` there, as
    :class:`~repro.service.queue.OptimizationQueue` does.

    ``budget`` is a *session-level* ceiling: one
    :class:`~repro.pipeline.budget.Budget` split across the jobs by
    ``budget_policy`` and intersected with any per-job budget.  In-process
    runs draw live from the pool (the adaptive policy recycles fast jobs'
    slack); process-pool runs race the session's absolute deadline —
    ``time.monotonic`` is machine-wide, so the ceiling survives the fan-out
    across worker processes, but jobs still queued behind a busy worker
    start with whatever time is left.
    """

    def __init__(
        self,
        jobs: Iterable[Job] = (),
        workers: int | None = None,
        budget: Budget | None = None,
        budget_policy: str = "adaptive",
        clock=None,
    ) -> None:
        self.jobs: list[Job] = list(jobs)
        self.workers = _checked_workers(workers)
        self.budget = budget
        self.budget_policy = budget_policy
        # Injectable monotonic clock for deterministic budget-ledger tests.
        self.clock = clock if clock is not None else time.monotonic

    # ------------------------------------------------------------- building
    def add(self, job: Job | None = None, /, **kwargs) -> Job:
        """Append a job (either prebuilt, or from ``Job(**kwargs)``)."""
        if job is None:
            kwargs.setdefault("name", kwargs.get("design", f"job-{len(self.jobs)}"))
            job = Job(**kwargs)
        self.jobs.append(job)
        return job

    @classmethod
    def for_designs(
        cls,
        names: Sequence[str] | None = None,
        workers: int | None = None,
        budget: Budget | None = None,
        budget_policy: str = "adaptive",
        **overrides,
    ) -> "Session":
        """A session with one job per registry design (or the named ones).

        ``budget``/``budget_policy`` are the *session-level* ceiling;
        per-job knobs (including ``Job.budget``) go through ``overrides``.
        """
        session = cls(
            workers=workers,
            budget=budget,
            budget_policy=budget_policy,
        )
        # One policy end-to-end unless a job-level override says otherwise:
        # the session splits its ceiling across jobs with it, and each job's
        # shard fan-out splits its slice the same way.
        overrides.setdefault("budget_policy", budget_policy)
        for name in names if names is not None else sorted(DESIGNS):
            session.add(Job(name=name, design=name, **overrides))
        return session

    # -------------------------------------------------------------- running
    def _pool_size(self, workers: int | None = None) -> int:
        """How many processes :meth:`run` fans out over (1: in-process)."""
        workers = _checked_workers(workers)
        if workers is None:
            workers = self.workers
        if workers is None:
            if self.budget is not None or not _forks():
                return 1
            workers = _usable_cpus()
        return max(1, min(workers, len(self.jobs)))

    def run(self, workers: int | None = None) -> list[RunRecord]:
        """Execute every job; one record per job, in order.

        ``workers`` overrides the session's pool size for this run.
        """
        size = self._pool_size(workers)
        if size > 1 and _nested_pool_available():
            jobs = self.jobs
            if self.budget is not None:
                children = concurrent_children(
                    self.budget,
                    [1.0] * len(jobs),
                    allocator_for(self.budget_policy),
                    self.clock(),
                )
                jobs = [
                    replace(job, budget=self._ceiling(job, child))
                    for job, child in zip(jobs, children, strict=True)
                ]
            records = _run_on_pool(jobs, size)
            if records is not None:
                return records
        if self.budget is None:
            return [execute_job(job) for job in self.jobs]
        return self._run_budgeted()

    def _run_budgeted(self) -> list[RunRecord]:
        """Enforce the session ceiling in-process: every job draws live
        from one pool."""
        pool = BudgetPool(
            self.budget, [1.0] * len(self.jobs), allocator_for(self.budget_policy)
        )
        records = []
        for job in self.jobs:
            record = execute_job(replace(job, budget=self._ceiling(job, pool.draw())))
            records.append(record)
            # Debit what the job's governor ledger says it consumed (its
            # "nodes" are e-nodes grown — same unit as the pool's quota;
            # RunRecord.nodes is the final absolute graph size, which would
            # wrongly charge every job its seed nodes too).
            spent = record.budget.get("spent", {}) if record.budget else {}
            pool.settle(
                nodes=spent.get("nodes", 0),
                iters=spent.get("iters", record.iterations),
                matches=spent.get("matches", 0),
                bdd_nodes=spent.get("bdd_nodes", 0),
            )
        return records

    @staticmethod
    def _ceiling(job: Job, child: Budget) -> Budget:
        return child if job.budget is None else job.budget.intersect(child)


def _checked_workers(workers: int | None) -> int | None:
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers
