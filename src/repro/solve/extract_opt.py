"""``OptimalExtract``: the ILP extraction objective behind the Extract hook.

The stage *is* an :class:`~repro.pipeline.stages.Extract` (same ``name``,
same anytime/governed contract): it first runs the greedy phase unchanged —
that is the warm start and the never-worse floor — then refines each output
cone through the branch-and-bound of :mod:`repro.solve.ilp`, adopting a
cone's solution only when its **DAG cost** (:func:`repro.synth.treecost.dag_cost`,
shared subterms priced once) strictly beats the greedy tree's.  Guarantees:

* **never worse than greedy** — adoption is gated on a strict DAG-cost win
  measured on the rebuilt trees, so whatever the solver did internally, the
  extracted design is the greedy one or a cheaper one;
* **never raises past greedy** — quota blow-ups (cone bigger than
  ``max_classes``), infeasible warm starts, rebuild failures and solver
  errors all degrade to the greedy tree for that cone, with the reason in
  the provenance map;
* **anytime** — the refinement races ``min(governor work deadline, stage
  time_limit)``, splitting the remaining window evenly across the cones
  still pending; expiry keeps the best incumbent (``"incumbent"``
  provenance), a drained search proves optimality (``"optimal"``).

Cones come from :func:`repro.analysis.sharding.plan_shards`'s per-output
plan — the same decomposition the sharded pipeline uses — so the program
stays tractable on wide designs; cross-cone sharing is deliberately outside
the objective (each cone optimizes its own DAG).
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.sharding import plan_shards
from repro.egraph import ExtractReport
from repro.ir import ops
from repro.ir.expr import Expr
from repro.pipeline.budget import Budget
from repro.pipeline.context import PipelineContext
from repro.pipeline.stages import Extract, _stage_window
from repro.solve.ilp import (
    extraction_problem,
    feasible_selection,
    solve_extraction,
)
from repro.synth.cost import DelayAreaCost
from repro.synth.treecost import dag_cost, model_cost

__all__ = ["OptimalExtract"]


class _RebuildError(Exception):
    """Internal: a selection could not be rebuilt into an expression."""


class OptimalExtract(Extract):
    """Globally optimal (DAG-cost) extraction, greedy-incumbent anytime.

    Drop-in for :class:`~repro.pipeline.stages.Extract` (``name`` stays
    ``"extract"`` so ledgers, timings and the verify-aware window treat it
    as the extraction stage).  ``time_limit`` caps the refinement wall even
    under an unlimited governor pool — a branch-and-bound proof must never
    stall a pipeline that asked for no budget; ``max_classes`` is the per-cone
    model-size quota and ``max_steps`` the per-cone search quota.
    """

    name = "extract"
    self_charging = True

    def __init__(
        self,
        key: Callable[[float, float], tuple] | None = None,
        strip_assumes: bool = False,
        label: str | None = None,
        time_limit: float = 2.0,
        max_classes: int = 4000,
        max_steps: int = 50_000,
    ) -> None:
        super().__init__(key=key, strip_assumes=strip_assumes, label=label)
        self.time_limit = time_limit
        self.max_classes = max_classes
        self.max_steps = max_steps

    # ------------------------------------------------------------------ run
    def run(self, ctx: PipelineContext) -> None:
        # Phase 1 — the greedy stage, unchanged: fills ctx.extracted /
        # ctx.optimized_costs, appends its ExtractReport, charges its own
        # ledger row.  This is both the warm start and the anytime floor.
        super().run(ctx)

        governor = ctx.governor
        clock = governor.clock
        started = clock()
        deadline = min(started + self.time_limit, governor.work_deadline)

        greedy_report = ctx.extract_reports[-1] if ctx.extract_reports else None
        greedy = self._extractor
        provenance: dict[str, str] = {}
        detail: dict[str, dict] = {}
        total_steps = 0
        try:
            if greedy is None or greedy_report is None or not greedy_report.complete:
                # The greedy phase itself ran out of budget: its best-so-far
                # checkpoint is the incumbent, and there is nothing left to
                # spend on a proof.
                provenance = {name: "incumbent" for name in ctx.roots}
            else:
                total_steps = self._refine(
                    ctx, greedy, clock, deadline, provenance, detail
                )
        except Exception as err:  # never worse than greedy, never a raise
            reason = f"{type(err).__name__}: {err}"
            for name in ctx.roots:
                provenance.setdefault(name, "fallback:error")
            detail["error"] = {"reason": reason}
        finally:
            elapsed = clock() - started
            ctx.artifacts["extract_objective"] = "ilp"
            ctx.artifacts["extract_ilp"] = {
                "roots": dict(provenance),
                "detail": detail,
            }
            ctx.extract_reports.append(
                ExtractReport(
                    status=self._overall(provenance),
                    total_time=elapsed,
                    steps=total_steps,
                    roots=dict(provenance),
                )
            )
            governor.charge(
                self.name,
                time_s=elapsed,
                allocated=Budget(time_s=round(_stage_window(deadline, started), 6)),
            )

    # ----------------------------------------------------------- refinement
    def _refine(
        self,
        ctx: PipelineContext,
        greedy,
        clock,
        deadline: float,
        provenance: dict[str, str],
        detail: dict[str, dict],
    ) -> int:
        """Solve per cone; adopt strict DAG-cost wins.  Returns steps."""
        egraph = ctx.require_egraph()
        cost_fn = DelayAreaCost(self.key)
        greedy_choice = greedy.selection()
        plan = plan_shards(ctx.roots, ctx.input_ranges)  # per-output cones
        total_steps = 0
        pending = len(plan.shards)
        for shard in plan.shards:
            now = clock()
            if now >= deadline:
                for name in shard.outputs:
                    provenance[name] = "incumbent"
                pending -= 1
                continue
            cone_deadline = now + (deadline - now) / pending
            pending -= 1
            tag, steps = self._solve_cone(
                ctx, egraph, cost_fn, greedy_choice, greedy, shard,
                cone_deadline, clock, detail,
            )
            total_steps += steps
            for name in shard.outputs:
                provenance[name] = tag
        return total_steps

    def _solve_cone(
        self,
        ctx: PipelineContext,
        egraph,
        cost_fn,
        greedy_choice,
        greedy,
        shard,
        cone_deadline: float,
        clock,
        detail: dict[str, dict],
    ) -> tuple[str, int]:
        """One cone: build the program, solve, rebuild, maybe adopt."""
        cone_roots = [ctx.root_ids[name] for name in shard.outputs]
        problem = extraction_problem(
            egraph, cone_roots, cost_fn, max_classes=self.max_classes
        )
        label = "+".join(shard.outputs)
        if problem is None:
            detail[label] = {"reason": "quota", "max_classes": self.max_classes}
            return "fallback:quota", 0
        incumbent = feasible_selection(problem, prefer=greedy_choice)
        if incumbent is None:
            detail[label] = {"reason": "infeasible"}
            return "fallback:infeasible", 0
        result = solve_extraction(
            problem,
            incumbent=incumbent,
            deadline=cone_deadline,
            clock=clock,
            max_steps=self.max_steps,
        )
        if result is None:
            detail[label] = {"reason": "infeasible"}
            return "fallback:infeasible", 0
        tag = result.status  # "optimal" | "incumbent"
        info = {
            "steps": result.steps,
            "variables": problem.variables(),
            "classes": problem.size,
            "solver_delay": round(result.delay, 6),
            "solver_area": round(result.area, 6),
            "adopted": False,
        }
        detail[label] = info
        if result.improved:
            adopted = self._adopt(ctx, egraph, problem, result.selection, greedy, shard)
            info["adopted"] = adopted
            if not adopted and tag == "optimal":
                # The solver's model disagreed with the tree-level measure
                # (or the rebuild failed): the greedy tree stays, and the
                # claim of optimality no longer applies to the output.
                tag = "incumbent"
        return tag, result.steps

    def _adopt(
        self, ctx, egraph, problem, selection, greedy, shard
    ) -> bool:
        """Rebuild the solution and swap it in on a strict DAG-cost win."""
        try:
            rebuilt = self._build_exprs(egraph, problem, selection, greedy)
        except (_RebuildError, RecursionError):
            return False
        adopted = False
        for name in shard.outputs:
            root = egraph.find(ctx.root_ids[name])
            expr = rebuilt.get(root)
            if expr is None:
                continue
            # The adoption gate measures both sides in tree space with the
            # DAG metric — whatever modeling gap exists between the e-graph
            # program and the rebuilt tree, the swapped-in design is
            # verifiably cheaper in the objective the bench asserts.
            new_cost = dag_cost(expr, ctx.input_ranges)
            old_cost = dag_cost(ctx.extracted[name], ctx.input_ranges)
            if self.key(new_cost.delay, new_cost.area) < self.key(
                old_cost.delay, old_cost.area
            ):
                ctx.extracted[name] = expr
                ctx.optimized_costs[name] = model_cost(expr, ctx.input_ranges)
                adopted = True
        return adopted

    def _build_exprs(
        self, egraph, problem, selection, greedy
    ) -> dict[int, Expr]:
        """Expressions for the cone roots under the solved selection.

        ``ASSUME`` constraint children are not part of the program (they
        never contribute hardware), so they are re-attached from the greedy
        extractor's trees — any member of the constraint class is
        semantically interchangeable there.
        """
        find = egraph.find
        candidates = problem.candidates
        memo: dict[int, Expr] = {}

        def build(cid: int) -> Expr:
            done = memo.get(cid)
            if done is not None:
                return done
            chosen = candidates[cid][selection[cid]]
            enode = chosen.payload
            if enode.op is ops.ASSUME:
                guarded = build(chosen.children[0])
                if self.strip_assumes:
                    expr = guarded
                else:
                    constraints = []
                    for child in enode.children[1:]:
                        built = greedy.try_expr_of(child)
                        if built is None:
                            raise _RebuildError(f"constraint class {child}")
                        constraints.append(built)
                    expr = Expr(ops.ASSUME, (), (guarded, *constraints))
            else:
                kids = tuple(build(find(k)) for k in enode.children)
                expr = Expr(enode.op, enode.attrs, kids)
            memo[cid] = expr
            return expr

        return {root: build(root) for root in problem.roots}

    @staticmethod
    def _overall(provenance: dict[str, str]) -> str:
        """One status for the report: the least-settled cone wins."""
        tags = set(provenance.values())
        if tags and all(tag == "optimal" for tag in tags):
            return "ilp:optimal"
        if "incumbent" in tags:
            return "ilp:incumbent"
        return "ilp:fallback"
