"""The composable pipeline stages (the paper's flow, taken apart).

Each stage is a small object with a ``name`` and a ``run(ctx)`` method over
the shared :class:`~repro.pipeline.context.PipelineContext`; a
:class:`~repro.pipeline.pipeline.Pipeline` is just an ordered list of them.
The paper's fixed flow — ingest RTL, constraint-aware equality saturation,
cost-based extraction, verification — is the preset
:class:`~repro.opt.optimizer.DatapathOptimizer` builds, but the stages
compose freely: several ``Saturate`` stages with different rulesets give
ROVER-style phased schedules, several ``Extract`` stages sweep extraction
objectives over one saturated e-graph, ``Verify``/``Emit`` are optional.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.analysis import DatapathAnalysis
from repro.egraph import EGraph, ExtractReport, Extractor, Runner
from repro.egraph.runner import (
    DEFAULT_MATCH_LIMIT,
    BackoffScheduler,
    RunnerReport,
    StopReason,
)
from repro.egraph.rewrite import Rewrite
from repro.ir.digest import canonical_digest
from repro.ir.expr import Expr
from repro.rewrites import compose_rules
from repro.rewrites.casesplit import case_split_on
from repro.rtl import emit_verilog, module_to_ir
from repro.synth.cost import DelayAreaCost, default_key
from repro.synth.treecost import model_cost
from repro.verify import check_equivalent
from repro.verify.equiv import DEFAULT_BDD_NODE_LIMIT

from repro.pipeline.budget import Budget, ResourceGovernor
from repro.pipeline.context import PipelineContext


@runtime_checkable
class Stage(Protocol):
    """One step of an optimization pipeline."""

    #: Label used in progress/timing records (repeatable across instances).
    name: str

    def run(self, ctx: PipelineContext) -> None:
        """Advance the context in place."""
        ...


def _stage_window(deadline: float, started: float) -> float:
    """The wall window a stage was allocated: the span from its start to
    its effective absolute deadline (governor's and/or its own)."""
    return max(0.0, deadline - started)


class Ingest:
    """Parse the design and seed the e-graph with its roots.

    The design comes from ``source`` (Verilog text), ``roots`` (named IR
    trees) or — when neither is given — whatever the context already
    carries.  Every output port shares one e-graph, so cross-output
    subexpressions dedup and co-optimize.

    ``seed_egraph=False`` parses only: the context gets roots but no
    e-graph.  Sharded flows use this — each shard re-ingests its cone into
    its own e-graph, so building (and analyzing) the monolithic graph here
    would be pure discarded work.
    """

    name = "ingest"

    def __init__(
        self,
        source: str | None = None,
        roots: dict[str, Expr] | None = None,
        seed_egraph: bool = True,
    ) -> None:
        self.source = source
        self.roots = dict(roots) if roots is not None else None
        self.seed_egraph = seed_egraph

    def run(self, ctx: PipelineContext) -> None:
        if self.roots is not None:
            ctx.roots = dict(self.roots)
        elif self.source is not None:
            # An explicit source always (re)parses — a reused context may
            # still carry the previous design's roots.
            ctx.source = self.source
            ctx.roots = module_to_ir(self.source)
        elif not ctx.roots:
            if ctx.source is None:
                raise ValueError("Ingest needs Verilog source or IR roots")
            ctx.roots = module_to_ir(ctx.source)
        # A new ingest starts a new run: clear results a previous design
        # left on a reused context (output names overlap — every registry
        # design calls its port "out" — so stale entries would otherwise be
        # served by Extract's original-cost memo and the record summaries).
        ctx.reports.clear()
        ctx.extracted.clear()
        ctx.extract_reports.clear()
        ctx.original_costs.clear()
        ctx.optimized_costs.clear()
        ctx.equivalence.clear()
        ctx.artifacts.clear()
        ctx.shard_plan = None
        ctx.shard_results.clear()
        if not self.seed_egraph:
            ctx.egraph = None
            ctx.root_ids = {}
            return
        ctx.egraph = EGraph([DatapathAnalysis(ctx.input_ranges)])
        ctx.root_ids = {
            name: ctx.egraph.add_expr(expr) for name, expr in ctx.roots.items()
        }
        ctx.egraph.rebuild()


class WarmStart:
    """Seed the e-graph from a persisted artifact instead of cold-building.

    Runs right after an ``Ingest(seed_egraph=False)``: it loads the artifact
    (see :mod:`repro.egraph.serialize`), checks compatibility — format
    version, ruleset/schedule key, and the *input ranges* the persisted
    analysis was computed under — and re-interns the current design's roots
    into the revived graph.  An edited design therefore inserts only its
    delta; every equivalence the previous run proved is already present, so
    the following ``Saturate`` re-converges in about one iteration on
    unchanged cones — and when the edit re-interns without adding a single
    e-node (say, exposing an already-explored internal wire as a new
    output), saturation is skipped outright: an empty delta has nothing to
    saturate.  Any incompatibility (missing file, format bump,
    different schedule, different ranges) degrades to exactly the cold graph
    ``Ingest`` would have built, and the outcome lands in
    ``ctx.artifacts["warm_start"]`` as ``"hit:<digest12>"`` or
    ``"cold:<reason>"``.

    When the loaded graph is provably the saved one (an exact digest hit or
    an empty delta, flagged ``warm_saturated``), the artifact's solved
    extraction table, if it has one, goes to
    ``ctx.artifacts["extract_table"]``: ``Extract`` then adopts it instead
    of re-running the cost fixpoint, when its objective matches.  A delta
    that adds nodes re-saturates and re-solves.
    """

    name = "warm-start"

    def __init__(self, path, schedule: str = "") -> None:
        self.path = path
        self.schedule = schedule

    def run(self, ctx: PipelineContext) -> None:
        from repro.egraph.serialize import EGraphFormatError, load_egraph

        egraph = None
        try:
            saved = load_egraph(
                self.path, expect_schedule=self.schedule or None
            )
        except EGraphFormatError as exc:
            status = f"cold:{exc.reason}"
        else:
            if saved.input_ranges != dict(ctx.input_ranges):
                # The persisted analysis baked the old run's range
                # assumptions into every class; reusing it under different
                # assumptions would smuggle in unsound equivalences.
                status = "cold:input-ranges"
            else:
                egraph = saved.egraph
                status = f"hit:{saved.header.digest[:12]}"
        exact = False
        if egraph is not None and saved.header.digest:
            exact = saved.header.digest == canonical_digest(
                ctx.roots, ctx.input_ranges
            )
            if not exact:
                status += ":delta"
        if egraph is None:
            egraph = EGraph([DatapathAnalysis(ctx.input_ranges)])
        nodes_before = egraph.node_count
        ctx.egraph = egraph
        ctx.root_ids = {
            name: egraph.add_expr(expr) for name, expr in ctx.roots.items()
        }
        egraph.rebuild()
        ctx.artifacts["warm_start"] = status
        empty_delta = (
            not exact
            and egraph is not None
            and status.startswith("hit:")
            and egraph.node_count == nodes_before
        )
        if exact or empty_delta:
            # The artifact *is* this design saturated under this exact
            # schedule — either the digest matches outright, or the edited
            # design's cones re-interned without adding a single e-node
            # (every subexpression was already explored), so there is no
            # delta to saturate.  Re-running the schedule would redo
            # consumed work, churning the graph past its limits from a
            # bigger seed and perturbing extraction tie-breaks.  Flag the
            # schedule as spent; a delta that adds new nodes re-saturates.
            ctx.artifacts["warm_saturated"] = True
            if saved.extract_table is not None:
                ctx.artifacts["extract_table"] = saved.extract_table


class SaveEGraph:
    """Persist the (saturated) e-graph as a warm-start artifact.

    Placed after ``Extract`` (monolithic schedules) or after a stitched
    ``MergeShards``, whose ``stitch-extract`` has run; a no-op when the
    context carries no e-graph (e.g. a sharded run without the stitch
    phase).  The artifact carries the last extraction's solved table
    (``ctx.artifacts["extract_table"]``), which ``Extract`` leaves only
    after a complete fixpoint under a nameable objective — never after a
    deadline-truncated one.  The header's digest is the canonical DAG digest
    (:mod:`repro.ir.digest`) of the context's roots, the one the service
    cache keys on, so the artifact is attributable; the write itself is
    atomic (:func:`repro.egraph.serialize.save_egraph`).
    """

    name = "save-egraph"

    def __init__(self, path, schedule: str = "") -> None:
        self.path = path
        self.schedule = schedule

    def run(self, ctx: PipelineContext) -> None:
        if ctx.egraph is None:
            return
        from repro.egraph.serialize import save_egraph

        save_egraph(
            self.path,
            ctx.egraph,
            ctx.root_ids,
            digest=canonical_digest(ctx.roots, ctx.input_ranges),
            schedule=self.schedule,
            input_ranges=dict(ctx.input_ranges),
            extract_table=ctx.artifacts.get("extract_table"),
        )
        ctx.artifacts["egraph_artifact"] = str(self.path)


class CaseSplit:
    """Designer-driven case splits on every root (Section V's future-work
    hook: ``x = mux(c, assume(x, c), assume(x, !c))``)."""

    name = "case-split"

    def __init__(self, splits: Sequence[Expr]) -> None:
        self.splits = tuple(splits)

    def run(self, ctx: PipelineContext) -> None:
        egraph = ctx.require_egraph()
        # Splitting grows the graph beyond whatever a warm-start artifact
        # recorded, so neither the persisted schedule nor its solved
        # extraction covers it.
        ctx.artifacts.pop("warm_saturated", None)
        ctx.artifacts.pop("extract_table", None)
        for root_id in ctx.root_ids.values():
            for split in self.splits:
                case_split_on(egraph, root_id, split)


class Saturate:
    """One equality-saturation phase.

    Instantiate several times with different rulesets/limits for phased
    schedules (e.g. structural identities first, then constraint
    exploitation, then narrowing); each instance appends its own
    :class:`~repro.egraph.runner.RunnerReport` to the context.

    The ``iter_limit``/``node_limit``/``time_limit`` knobs are intersected
    with the context governor's remaining pool (inheriting the governor's
    *absolute* deadline — phased schedules race one clock, they don't each
    restart it), and the stage charges its spend into the governor's
    ledger.
    """

    name = "saturate"
    #: This stage charges its own spend into the governor's ledger; the
    #: pipeline must not add a generic wall-time row on top.
    self_charging = True

    def __init__(
        self,
        rules: Sequence[Rewrite] | None = None,
        iter_limit: int = 8,
        node_limit: int = 30_000,
        time_limit: float = 60.0,
        check_invariants: bool = False,
        label: str | None = None,
    ) -> None:
        self.rules = list(rules) if rules is not None else compose_rules()
        self.iter_limit = iter_limit
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.check_invariants = check_invariants
        if label is not None:
            self.name = label

    def effective_budget(self, ctx: PipelineContext) -> Budget:
        """The budget this stage would saturate under on ``ctx``."""
        budget = Budget(
            iters=self.iter_limit, nodes=self.node_limit, time_s=self.time_limit
        )
        remaining = ctx.governor.remaining()
        if remaining.nodes is not None:
            # The governor pools e-nodes *grown*; the runner's cap is an
            # absolute graph size — translate relative quota to this graph.
            remaining = replace(
                remaining, nodes=ctx.require_egraph().node_count + remaining.nodes
            )
        return budget.intersect(remaining)

    def run(self, ctx: PipelineContext) -> None:
        if ctx.artifacts.get("warm_saturated"):
            # An exact warm-start hit: the loaded artifact already consumed
            # this schedule on this very design, so the fixpoint this stage
            # would reach is the graph it is looking at.
            ctx.reports.append(
                RunnerReport(StopReason.SATURATED, [], 0.0)
            )
            return
        budget = self.effective_budget(ctx)
        governor = ctx.governor
        egraph = ctx.require_egraph()
        seed_nodes = egraph.node_count
        # Match-budget fairness: the backoff limit is tuned for one output
        # cone, and a shard gets exactly that.  A monolithic run shares one
        # e-graph across every output, so the same absolute limit would ban
        # rules after exploring a fraction of each cone — scale it by the
        # root count so monolithic and sharded runs explore each cone
        # equally deeply.
        scheduler = None
        if len(ctx.roots) > 1:
            scheduler = BackoffScheduler(
                match_limit=DEFAULT_MATCH_LIMIT * len(ctx.roots)
            )
        runner = Runner(
            egraph,
            self.rules,
            budget=budget,
            scheduler=scheduler,
            check_invariants=self.check_invariants,
            clock=governor.clock,
        )
        report = runner.run()
        ctx.reports.append(report)
        allocated = budget
        if allocated.nodes is not None:
            # The runner's cap is an absolute graph size; the ledger
            # reports growth allowance — the same unit as its spend.
            allocated = replace(
                allocated, nodes=max(0, allocated.nodes - seed_nodes)
            )
        if allocated.deadline is not None:
            # Ledger rows report concrete spans, not raw monotonic
            # instants: the allocation was "whatever window was left",
            # capped by the stage's own time knob.
            window = max(
                0.0,
                allocated.deadline - (governor.clock() - report.total_time),
            )
            span = (
                window
                if allocated.time_s is None
                else min(allocated.time_s, window)
            )
            allocated = replace(allocated, time_s=round(span, 6))
        governor.charge_report(self.name, report, allocated=allocated)


class Extract:
    """Cost-based extraction with a pluggable objective — an *anytime* stage.

    ``key`` orders ``(delay, area)`` costs — the paper's delay-prioritized
    weighted sum by default, or e.g. :func:`~repro.synth.cost.weighted_key`
    for trade-off sweeps.  ASSUME wrappers are kept in the extracted tree by
    default: the tree-level range analysis re-derives constraint refinements
    from them, so netlist lowering and Verilog emission see the reduced
    bitwidths.

    The extractor races the context governor's absolute deadline, if its
    pool has one (on the governor's injectable clock): on expiry the cost
    fixpoint stops within one worklist step and the stage returns its
    best-so-far checkpoint per root — the sub-optimally-costed tree when the
    root was reached, the behavioural tree unchanged when it was not.  The
    outcome lands in an :class:`~repro.egraph.extract.ExtractReport` on
    ``ctx.extract_reports`` (``status="complete"|"deadline"``) and the
    stage's wall spend is charged into the governor's ledger — never an
    exception, never an unledgered overshoot.

    A solved table in ``ctx.artifacts["extract_table"]`` (a warm start's)
    replaces the fixpoint when its objective tag and graph fingerprint both
    match (report ``greedy_table="reused"``, 0 steps).  Afterwards the slot
    holds this run's table for ``SaveEGraph``, or is cleared when the
    fixpoint was truncated or the key has no tag.
    """

    name = "extract"
    self_charging = True

    def __init__(
        self,
        key: Callable[[float, float], tuple] | None = None,
        strip_assumes: bool = False,
        label: str | None = None,
    ) -> None:
        self.key = key if key is not None else default_key
        self.strip_assumes = strip_assumes
        #: The most recent run's extractor — the greedy solution an ILP
        #: refinement (:class:`repro.solve.extract_opt.OptimalExtract`)
        #: warm-starts from, and a test observation point.
        self._extractor: Extractor | None = None
        if label is not None:
            self.name = label

    def run(self, ctx: PipelineContext) -> None:
        governor = ctx.governor
        clock = governor.clock
        started = clock()
        deadline = None
        if not math.isinf(governor.work_deadline):
            # The *work* deadline: under a verify-aware policy the governor
            # reserves a tail slice of the wall for Verify, and an anytime
            # extraction must not eat into it.
            deadline = governor.work_deadline
        extractor: Extractor | None = None
        root_status: dict[str, str] = {}
        try:
            extractor = Extractor(
                ctx.require_egraph(),
                DelayAreaCost(self.key),
                strip_assumes=self.strip_assumes,
                deadline=deadline,
                clock=clock,
                table=ctx.artifacts.get("extract_table"),
            )
            table = extractor.table()
            if table is None:
                ctx.artifacts.pop("extract_table", None)
            else:
                ctx.artifacts["extract_table"] = table
            for name, expr in ctx.roots.items():
                if extractor.complete:
                    # Full fixpoint: an unextractable root is an engine
                    # error and must keep raising, exactly as before the
                    # anytime redesign.
                    optimized = extractor.expr_of(ctx.root_ids[name])
                    root_status[name] = "extracted"
                else:
                    optimized = extractor.try_expr_of(ctx.root_ids[name])
                    if optimized is None:
                        # Anytime floor: the behavioural tree is always a
                        # sound implementation of itself, so a deadline
                        # expiring before the fixpoint costs this root
                        # degrades the result, never the run.
                        optimized = expr
                        root_status[name] = "fallback"
                    else:
                        root_status[name] = "extracted"
                # The behavioural cost is objective-independent; objective
                # sweeps re-run Extract on one context, so compute it once.
                if name not in ctx.original_costs:
                    ctx.original_costs[name] = model_cost(expr, ctx.input_ranges)
                if optimized is expr:
                    # The fallback *is* the behavioural tree: reuse its
                    # cost instead of re-walking a large tree after the
                    # budget is already exhausted.
                    cost = ctx.original_costs[name]
                else:
                    cost = model_cost(optimized, ctx.input_ranges)
                    if (
                        not extractor.complete
                        and cost.key > ctx.original_costs[name].key
                    ):
                        # A truncated fixpoint may only have costed the
                        # root through an expanded (larger) e-node; the
                        # anytime contract is never-worse-than-input.
                        optimized = expr
                        cost = ctx.original_costs[name]
                        root_status[name] = "fallback"
                ctx.extracted[name] = optimized
                ctx.optimized_costs[name] = cost
            # Objective provenance for the run record; an ILP refinement
            # stage overwrites this after its solve.
            ctx.artifacts.setdefault("extract_objective", "greedy")
        finally:
            # Charge even on a raising path (same contract as Verify), so
            # a failed run's error record still shows where the time went.
            elapsed = clock() - started
            self._extractor = extractor
            if extractor is not None:
                ctx.extract_reports.append(
                    ExtractReport(
                        status="complete" if extractor.complete else "deadline",
                        total_time=elapsed,
                        steps=extractor.steps,
                        roots=dict(root_status),
                        greedy_table="reused" if extractor.reused else "solved",
                    )
                )
            governor.charge(
                self.name,
                time_s=elapsed,
                allocated=(
                    Budget(time_s=round(_stage_window(deadline, started), 6))
                    if deadline is not None
                    else None
                ),
            )


class Verify:
    """Equivalence-check every extracted root against its behavioural tree.

    ``strict=True`` (the default, matching the tool) raises on a proved
    non-equivalence — an optimizer soundness bug must never emit RTL.

    The stage is *interruptible*: it races the governor's absolute deadline
    (intersected with its own ``budget``, whose ``time_s`` spans from stage
    start and whose ``bdd_nodes`` caps BDD growth).  A blowing-up BDD stops
    at the node quota or deadline and degrades to randomized trials
    (``EquivalenceResult.method == "random"``); a check cut short before
    any confidence was reached reports ``method == "timeout"`` with
    ``equivalent=None``.  Degradation never masks a proved difference —
    ``strict`` still raises on ``equivalent is False`` — and the stage
    charges its wall and BDD-node spend into the governor's ledger like
    every other stage (including on the strict-raise path, so failed runs
    stay diagnosable from the run record).
    """

    name = "verify"
    self_charging = True

    def __init__(
        self,
        strict: bool = True,
        random_trials: int | None = None,
        budget: Budget | None = None,
    ) -> None:
        self.strict = strict
        self.random_trials = random_trials
        self.budget = budget

    def run(self, ctx: PipelineContext) -> None:
        if not ctx.extracted:
            raise RuntimeError("Verify needs an Extract stage to run first")
        governor = ctx.governor
        clock = governor.clock
        started = clock()
        deadline = governor.deadline
        if self.budget is not None:
            deadline = min(deadline, self.budget.deadline_at(started))
        own_quota = self.budget.bdd_nodes if self.budget is not None else None
        spent_bdd = 0
        allocated_bdd = None
        try:
            for name, expr in ctx.roots.items():
                optimized = ctx.extracted[name]
                kwargs = {}
                if self.random_trials is not None:
                    kwargs["random_trials"] = self.random_trials
                quota = self._bdd_pool_left(governor, own_quota, spent_bdd)
                if quota is not None:
                    # A quota *tightens* the engine's safety cap; a pool
                    # larger than the cap must not loosen it.
                    kwargs["bdd_node_limit"] = min(quota, DEFAULT_BDD_NODE_LIMIT)
                    if allocated_bdd is None:
                        allocated_bdd = kwargs["bdd_node_limit"]
                if not math.isinf(deadline):
                    kwargs["deadline"] = deadline
                    kwargs["clock"] = clock
                verdict = check_equivalent(
                    expr, optimized, ctx.input_ranges, **kwargs
                )
                ctx.equivalence[name] = verdict
                spent_bdd += verdict.bdd_nodes
                if self.strict and verdict.equivalent is False:
                    raise AssertionError(
                        f"optimizer produced a non-equivalent design for "
                        f"{name!r} at {verdict.counterexample}"
                    )
        finally:
            elapsed = clock() - started
            allocated = {}
            if not math.isinf(deadline):
                allocated["time_s"] = round(_stage_window(deadline, started), 6)
            if allocated_bdd is not None:
                allocated["bdd_nodes"] = allocated_bdd
            governor.charge(
                self.name,
                time_s=elapsed,
                bdd_nodes=spent_bdd,
                allocated=allocated or None,
            )

    @staticmethod
    def _bdd_pool_left(
        governor: ResourceGovernor, own_quota: int | None, spent: int
    ) -> int | None:
        """BDD nodes this check may grow (None = engine default applies).

        The governor's pool is consulted live, so several outputs checked
        under one stage share it; the stage's own quota is a further
        ceiling.  A dry pool returns 0 — the BDD strategy then trips
        immediately and the check degrades to randomized trials.
        """
        left = governor.remaining().bdd_nodes
        if left is not None:
            left = max(0, left - spent)
        if own_quota is not None:
            own_left = max(0, own_quota - spent)
            left = own_left if left is None else min(left, own_left)
        return left


class Emit:
    """Render the extracted design as a Verilog module artifact."""

    name = "emit"

    def __init__(self, module_name: str = "optimized") -> None:
        self.module_name = module_name

    def run(self, ctx: PipelineContext) -> None:
        if not ctx.extracted:
            raise RuntimeError("Emit needs an Extract stage to run first")
        ctx.artifacts["verilog"] = emit_verilog(
            dict(ctx.extracted), self.module_name, ctx.input_ranges
        )
