"""Equality-saturation runner with an egg-style backoff scheduler.

The runner repeatedly (1) searches every enabled rule against a per-iteration
node index, (2) applies all matches constructively, (3) rebuilds congruence
and the analyses, until saturation or a node / iteration / time limit —
mirroring ``egg::Runner``.

The :class:`BackoffScheduler` keeps match-hungry rules (associativity,
commutativity) from drowning the graph: any rule producing more than its
budget of matches in one iteration is banned for exponentially growing
spans, exactly like egg's ``BackoffScheduler``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

from repro.egraph.egraph import EGraph
from repro.egraph.query import QueryPlan
from repro.egraph.rewrite import Rewrite

if TYPE_CHECKING:  # import at runtime happens lazily (package-cycle-free)
    from repro.pipeline.budget import Budget


class StopReason(Enum):
    SATURATED = "saturated"
    ITERATION_LIMIT = "iteration limit"
    NODE_LIMIT = "node limit"
    TIME_LIMIT = "time limit"
    MATCH_LIMIT = "match limit"


@dataclass
class IterationStats:
    """Per-iteration bookkeeping (sizes match the paper's Section V stats).

    Sizes are recorded both at iteration start (``*_before``) and after the
    rebuild (``*_after``), so real per-iteration growth is reported instead
    of the start-of-iteration snapshot being silently overwritten.
    """

    index: int
    nodes_before: int
    classes_before: int
    nodes_after: int = 0
    classes_after: int = 0
    #: E-node count at the end of the apply phase, before the rebuild's
    #: congruence merges deflate it — the capacity the iteration actually
    #: consumed (what a shared budget pool is charged).
    nodes_peak: int = 0
    applied: dict[str, int] = field(default_factory=dict)
    search_time: float = 0.0
    apply_time: float = 0.0
    rebuild_time: float = 0.0

    @property
    def node_growth(self) -> int:
        """E-nodes added by this iteration."""
        return self.nodes_after - self.nodes_before

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (drives ``RunRecord`` / perf logs)."""
        return {
            "index": self.index,
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "nodes_peak": self.nodes_peak,
            "classes_before": self.classes_before,
            "classes_after": self.classes_after,
            "applied": dict(self.applied),
            "search_s": round(self.search_time, 6),
            "apply_s": round(self.apply_time, 6),
            "rebuild_s": round(self.rebuild_time, 6),
        }


@dataclass
class RunnerReport:
    """Outcome of a saturation run."""

    stop_reason: StopReason
    iterations: list[IterationStats]
    total_time: float
    #: The budget the run was governed by.
    budget: "Budget | None" = None

    @property
    def nodes(self) -> int:
        return self.iterations[-1].nodes_after if self.iterations else 0

    @property
    def classes(self) -> int:
        return self.iterations[-1].classes_after if self.iterations else 0

    @property
    def nodes_grown(self) -> int:
        """E-nodes the run consumed (what a shared pool is charged).

        Measured to the final iteration's pre-rebuild *peak*: a run stopped
        on ``NODE_LIMIT`` charges the capacity that tripped the limit even
        when the closing rebuild merges the graph back below it — so a
        governor's ledger always agrees with the stop reason.
        """
        if not self.iterations:
            return 0
        last = self.iterations[-1]
        return max(
            0,
            max(last.nodes_peak, last.nodes_after)
            - self.iterations[0].nodes_before,
        )

    @property
    def matches_applied(self) -> int:
        """Total successful rule applications across all iterations."""
        return sum(sum(it.applied.values()) for it in self.iterations)

    def spent(self) -> dict:
        """The ledger row this run consumed (allocated-vs-spent reporting)."""
        return {
            "time_s": round(self.total_time, 6),
            "nodes": self.nodes_grown,
            "iters": len(self.iterations),
            "matches": self.matches_applied,
        }

    def summary(self) -> str:
        """One-line human summary."""
        grown = sum(it.node_growth for it in self.iterations)
        return (
            f"{len(self.iterations)} iterations, {self.nodes} nodes "
            f"(+{grown} grown), {self.classes} classes, "
            f"stopped: {self.stop_reason.value}, {self.total_time:.2f}s"
        )

    def as_dict(self) -> dict:
        """JSON-serializable report (drives ``RunRecord`` / perf logs)."""
        out = {
            "stop_reason": self.stop_reason.value,
            "total_time_s": round(self.total_time, 6),
            "nodes": self.nodes,
            "classes": self.classes,
            "iterations": [it.as_dict() for it in self.iterations],
        }
        if self.budget is not None:
            out["budget"] = {
                "allocated": self.budget.as_dict(include_deadline=False),
                "spent": self.spent(),
            }
        return out


#: Per-rule match budget before the backoff scheduler bans a rule.  Tuned
#: for a single output cone; multi-output monolithic runs scale it by the
#: root count (see :class:`repro.pipeline.stages.Saturate`) so one shared
#: e-graph is not starved relative to per-output shards.
DEFAULT_MATCH_LIMIT = 1_000


class BackoffScheduler:
    """Ban rules that over-match, with doubling ban lengths."""

    def __init__(
        self, match_limit: int = DEFAULT_MATCH_LIMIT, ban_length: int = 2
    ) -> None:
        self.match_limit = match_limit
        self.ban_length = ban_length
        self._banned_until: dict[str, int] = {}
        self._times_banned: dict[str, int] = {}

    def enabled(self, rule: Rewrite, iteration: int) -> bool:
        return self._banned_until.get(rule.name, -1) < iteration

    def budget(self, rule: Rewrite) -> int:
        shift = self._times_banned.get(rule.name, 0)
        return self.match_limit << shift

    def record(self, rule: Rewrite, matches: int, iteration: int) -> None:
        if matches < self.budget(rule):
            return
        banned = self._times_banned.get(rule.name, 0)
        self._times_banned[rule.name] = banned + 1
        self._banned_until[rule.name] = iteration + (self.ban_length << banned)


class Runner:
    """Drive a set of rewrites over an e-graph until a stop condition.

    The stop condition is a :class:`~repro.pipeline.budget.Budget` — wall
    clock (relative span and/or inherited absolute deadline), e-node cap,
    iteration quota, match quota — defaulting to
    :data:`~repro.pipeline.budget.RUNNER_DEFAULT_BUDGET`.  A pipeline's
    :class:`~repro.pipeline.budget.ResourceGovernor` threads one shared
    deadline through nested saturation stages this way instead of letting
    each restart the clock.
    """

    def __init__(
        self,
        egraph: EGraph,
        rules: Sequence[Rewrite],
        *,
        scheduler: BackoffScheduler | None = None,
        check_invariants: bool = False,
        budget: "Budget | None" = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        from repro.pipeline.budget import RUNNER_DEFAULT_BUDGET  # cycle-free

        self.egraph = egraph
        self.rules = list(rules)
        self.budget = budget if budget is not None else RUNNER_DEFAULT_BUDGET
        self.clock = clock if clock is not None else time.monotonic
        self.scheduler = scheduler if scheduler is not None else BackoffScheduler()
        #: Assert e-graph invariants after every rebuild (tests only — the
        #: check is a full sweep).
        self.check_invariants = check_invariants
        self._spent_once_rules: set[str] = set()
        #: Every rule's arms lowered once: left-hand sides into
        #: matchers searched in one batched per-op scan each iteration,
        #: right-hand sides into builders (see :meth:`Rewrite.bind`).
        self._plan = QueryPlan(self.rules)

    def run(self) -> RunnerReport:
        """Run to saturation or budget exhaustion; the e-graph is mutated
        in place.

        The time budget is a *deadline* threaded through the search and
        apply loops, so one slow phase cannot blow arbitrarily past it —
        the run stops mid-iteration (after a rebuild that leaves the
        e-graph consistent) with ``StopReason.TIME_LIMIT``.  When the
        budget carries an absolute deadline (inherited from a governor or
        parent shard), that instant wins over ``start + time_s``: nested
        runs race one shared clock rather than each restarting it.
        """
        clock = self.clock
        start = clock()
        deadline = self.budget.deadline_at(start)
        node_limit = self.budget.nodes if self.budget.nodes is not None else math.inf
        match_limit = (
            self.budget.matches if self.budget.matches is not None else math.inf
        )
        iter_limit = self.budget.iters
        matches_seen = 0
        iterations: list[IterationStats] = []
        stop: StopReason | None = None
        #: rule position -> its bound per-match apply step (see Rewrite.bind).
        steps: dict[int, Callable[[int, dict], bool]] = {}

        self.egraph.rebuild()
        if self.check_invariants:
            self.egraph.check_invariants()
        iteration = 0
        while iter_limit is None or iteration < iter_limit:
            if self.egraph.node_count > node_limit:
                # A seed already over budget (warm start, oversized ingest)
                # cannot admit a single application: skip the search phase
                # it would pay for nothing.
                stop = StopReason.NODE_LIMIT
                break
            stats = IterationStats(
                index=iteration,
                nodes_before=self.egraph.node_count,
                classes_before=self.egraph.class_count,
            )
            version_before = self.egraph.version

            # --- search phase -------------------------------------------
            t0 = clock()
            matches: list[tuple[int, list[tuple[int, dict]]]] = []
            plan_results: dict[int, list] = {}
            # Skipped only once the deadline has passed, and then the loop
            # below stops before searching any rule.
            if clock() <= deadline:
                budgets = {
                    position: self.scheduler.budget(rule)
                    for position, rule in enumerate(self.rules)
                    if not (rule.once and rule.name in self._spent_once_rules)
                    and self.scheduler.enabled(rule, iteration)
                }
                if budgets:
                    plan_results = self._plan.search(self.egraph, budgets)
            for position, rule in enumerate(self.rules):
                if clock() > deadline:
                    stop = StopReason.TIME_LIMIT
                    break
                if rule.once and rule.name in self._spent_once_rules:
                    continue
                if not self.scheduler.enabled(rule, iteration):
                    continue
                found = plan_results[position]
                self.scheduler.record(rule, len(found), iteration)
                if found:
                    matches.append((position, found))
                    matches_seen += len(found)
                    if matches_seen > match_limit:
                        stop = StopReason.MATCH_LIMIT
                        break
            stats.search_time = clock() - t0

            # --- apply phase --------------------------------------------
            t0 = clock()
            if stop is None:
                egraph = self.egraph
                for position, found in matches:
                    rule = self.rules[position]
                    step = steps.get(position)
                    if step is None:
                        # Bound on the rule's first match of the run: the
                        # conditions and compiled builders stay out of the
                        # per-match loop below.
                        step = steps[position] = rule.bind(
                            egraph, self._plan.builders[position]
                        )
                    applied = 0
                    for class_id, env in found:
                        if step(class_id, env):
                            applied += 1
                        if egraph.node_count > node_limit:
                            stop = StopReason.NODE_LIMIT
                            break
                        if clock() > deadline:
                            stop = StopReason.TIME_LIMIT
                            break
                    if applied:
                        stats.applied[rule.name] = (
                            stats.applied.get(rule.name, 0) + applied
                        )
                        if rule.once:
                            self._spent_once_rules.add(rule.name)
                    if stop is not None:
                        break
            stats.apply_time = clock() - t0
            stats.nodes_peak = self.egraph.node_count

            # --- rebuild phase (always: leave the graph consistent) -----
            t0 = clock()
            self.egraph.rebuild()
            stats.rebuild_time = clock() - t0

            stats.nodes_after = self.egraph.node_count
            stats.classes_after = self.egraph.class_count
            iterations.append(stats)
            if self.check_invariants:
                self.egraph.check_invariants()

            if stop is not None:
                break
            if self.egraph.version == version_before:
                stop = StopReason.SATURATED
                break
            if self.egraph.node_count > node_limit:
                stop = StopReason.NODE_LIMIT
                break
            if clock() > deadline:
                stop = StopReason.TIME_LIMIT
                break
            iteration += 1

        return RunnerReport(
            stop_reason=stop if stop is not None else StopReason.ITERATION_LIMIT,
            iterations=iterations,
            total_time=clock() - start,
            budget=self.budget,
        )
