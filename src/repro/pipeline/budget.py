"""Hierarchical resource budgets: one accounted pool for the whole flow.

The paper runs equality saturation "until saturation or a node / iteration /
time limit" — the whole flow is *resource-bounded* search, and how the bound
is spent decides the result quality (ROVER spends it in phases to scale to
real RTL).  Before this module the limits were smeared across five
uncoordinated layers (``Runner`` kwargs, ``Saturate`` knobs,
``ShardSchedule``, ``Job``/``OptimizerConfig`` fields, CLI flags), each
restarting its own clock: a slow shard inherited the *whole* ``time_limit``,
so an 8-shard run could overshoot its deadline eightfold.

This module makes the bound a first-class value:

* :class:`Budget` — an immutable quota bundle: wall-clock span and/or an
  *absolute* monotonic deadline, plus e-node / iteration / e-match quotas
  and a BDD-node quota for equivalence checking.
  ``None`` components are unlimited.  Budgets are picklable, and because
  ``time.monotonic`` is ``CLOCK_MONOTONIC`` (system-wide on Linux), an
  absolute deadline stays meaningful across process-pool fan-out.
* :class:`BudgetAllocator` policies — :class:`FairSplit`,
  :class:`WeightedSplit` (∝ cone size) and :class:`AdaptiveSplit`, which
  draws every child from the *live* remaining pool so unspent budget from
  fast shards flows to slow ones.
* :class:`BudgetPool` — sequential draw/settle accounting for a serial
  fan-out (shards in one process, jobs in one session).
* :class:`ResourceGovernor` — the per-run ledger threaded through
  :class:`~repro.pipeline.context.PipelineContext`: stages intersect their
  own knobs with :meth:`ResourceGovernor.remaining` and
  :meth:`~ResourceGovernor.charge` what they spent, so nested stages share
  ONE deadline instead of each restarting the clock, and every run record
  can report allocated-vs-spent per stage and per shard.

This module deliberately imports nothing from the rest of the package: the
engine-level :class:`~repro.egraph.runner.Runner` consumes budgets too, and
keeping this file stdlib-only keeps that dependency cycle-free.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

Clock = Callable[[], float]


def _min_opt(a, b):
    """Min where ``None`` means unlimited."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclass(frozen=True)
class Budget:
    """A quota bundle for resource-bounded saturation.  ``None`` = unlimited.

    ``time_s`` is a relative wall-clock span (starts when the consumer
    starts); ``deadline`` is an absolute ``time.monotonic`` instant.  A
    budget may carry both — the effective deadline is whichever comes first
    (:meth:`deadline_at`) — which is how a child stage inherits its parent's
    deadline instead of restarting the clock.
    """

    time_s: float | None = None
    deadline: float | None = None
    nodes: int | None = None
    iters: int | None = None
    matches: int | None = None
    #: BDD node quota for equivalence checking: a ``Verify`` stage stops
    #: growing BDDs once the pool is dry and degrades to randomized trials.
    bdd_nodes: int | None = None

    # ------------------------------------------------------------ construction
    @classmethod
    def unlimited(cls) -> "Budget":
        return cls()

    @classmethod
    def of_ms(cls, milliseconds: float, **kwargs) -> "Budget":
        """A wall-clock budget from milliseconds (the CLI's ``--budget-ms``)."""
        return cls(time_s=milliseconds / 1000.0, **kwargs)

    # -------------------------------------------------------------- predicates
    @property
    def is_unlimited(self) -> bool:
        return (
            self.time_s is None
            and self.deadline is None
            and self.nodes is None
            and self.iters is None
            and self.matches is None
            and self.bdd_nodes is None
        )

    # ------------------------------------------------------------- combinators
    def deadline_at(self, start: float) -> float:
        """Absolute deadline for a run starting at ``start`` (inf = none)."""
        candidates = []
        if self.time_s is not None:
            candidates.append(start + self.time_s)
        if self.deadline is not None:
            candidates.append(self.deadline)
        return min(candidates) if candidates else math.inf

    def intersect(self, other: "Budget") -> "Budget":
        """The tighter of two budgets, componentwise."""
        return Budget(
            time_s=_min_opt(self.time_s, other.time_s),
            deadline=_min_opt(self.deadline, other.deadline),
            nodes=_min_opt(self.nodes, other.nodes),
            iters=_min_opt(self.iters, other.iters),
            matches=_min_opt(self.matches, other.matches),
            bdd_nodes=_min_opt(self.bdd_nodes, other.bdd_nodes),
        )

    def scaled(self, fraction: float) -> "Budget":
        """A ``fraction`` share of every quota (deadline passes through —
        an absolute instant cannot be scaled, only inherited)."""

        def part(value, integer=False):
            if value is None:
                return None
            share = value * fraction
            return int(share) if integer else share

        return Budget(
            time_s=part(self.time_s),
            deadline=self.deadline,
            nodes=part(self.nodes, integer=True),
            iters=part(self.iters, integer=True),
            matches=part(self.matches, integer=True),
            bdd_nodes=part(self.bdd_nodes, integer=True),
        )

    # ------------------------------------------------------------ serialization
    def as_dict(self, include_deadline: bool = True) -> dict:
        """JSON-ready quota dict; unlimited components are omitted."""
        out: dict = {}
        for key in ("time_s", "deadline", "nodes", "iters", "matches", "bdd_nodes"):
            if key == "deadline" and not include_deadline:
                continue
            value = getattr(self, key)
            if value is not None:
                out[key] = round(value, 6) if isinstance(value, float) else value
        return out


#: The budget a :class:`~repro.egraph.runner.Runner` runs under when none
#: is passed: 16 iterations, 50k e-nodes, two minutes.
RUNNER_DEFAULT_BUDGET = Budget(iters=16, nodes=50_000, time_s=120.0)


def spend_dict(
    *,
    time_s: float = 0.0,
    nodes: int = 0,
    iters: int = 0,
    matches: int = 0,
    bdd_nodes: int = 0,
) -> dict:
    """The canonical ledger "spent" shape."""
    return {
        "time_s": round(time_s, 6),
        "nodes": nodes,
        "iters": iters,
        "matches": matches,
        "bdd_nodes": bdd_nodes,
    }


# ------------------------------------------------------------------ allocators
class BudgetAllocator:
    """Split a parent budget across weighted children.

    :meth:`split` is the up-front allocation (used for concurrent fan-out and
    property-tested to never sum above the parent); serial fan-out goes
    through :class:`BudgetPool`, which consults :attr:`adaptive` to decide
    whether children draw fixed up-front shares or live remaining-pool
    shares.
    """

    name = "fair"
    #: Adaptive policies draw from the live remaining pool, so unspent
    #: budget returned by fast children flows to the slow ones.
    adaptive = False

    def shares(self, weights: Sequence[float]) -> list[float]:
        """Per-child fractions, summing to 1."""
        count = len(weights)
        return [1.0 / count] * count if count else []

    def split(self, budget: Budget, weights: Sequence[float]) -> list[Budget]:
        """Up-front children; componentwise the children never sum above
        the parent.  Countable quotas allocate ceil-then-clamp (greedy
        largest-first in share order), so a small nonzero parent quota is
        never floored into an all-zero fan-out."""
        remaining = {
            quota: getattr(budget, quota)
            for quota in ("nodes", "iters", "matches", "bdd_nodes")
        }
        children = []
        for share in self.shares(weights):
            counts = {}
            for quota, left in remaining.items():
                total = getattr(budget, quota)
                if total is None:
                    counts[quota] = None
                else:
                    allocation = min(math.ceil(total * share), left)
                    remaining[quota] = left - allocation
                    counts[quota] = allocation
            children.append(
                Budget(
                    time_s=None if budget.time_s is None else budget.time_s * share,
                    deadline=budget.deadline,
                    **counts,
                )
            )
        return children


class FairSplit(BudgetAllocator):
    """Every child gets an equal share, regardless of size."""

    name = "fair"


class WeightedSplit(BudgetAllocator):
    """Children get shares proportional to their weights (cone sizes)."""

    name = "weighted"

    def shares(self, weights: Sequence[float]) -> list[float]:
        total = float(sum(weights))
        if total <= 0:
            return super().shares(weights)
        return [float(w) / total for w in weights]


class AdaptiveSplit(WeightedSplit):
    """Weighted shares drawn from the *live* pool: a child that finishes
    under budget implicitly refunds its slack to every later child."""

    name = "adaptive"
    adaptive = True


class VerifyAwareSplit(AdaptiveSplit):
    """Adaptive allocation that reserves a tail slice of the wall for
    verification.

    A saturate-heavy run under one shared deadline historically drained the
    whole pool before ``Verify`` started, pushing every equivalence check
    into ``method="timeout"`` degradation — a ``Budget.bdd_nodes`` quota is
    dead capital without wall time left to spend it in.  Under this policy
    the :class:`ResourceGovernor` holds back ``verify_tail`` of the wall
    window from search-side stages (``Saturate``, ``Extract``, shard
    fan-outs all see a *work deadline*), while ``Verify`` races the full
    deadline — so the BDD quota is actually reachable.  Quota splitting
    across children is inherited from :class:`AdaptiveSplit` (children
    still never collectively overspend the parent, componentwise).
    """

    name = "verify-aware"
    #: Fraction of the wall window reserved for the Verify stage.
    verify_tail = 0.25


ALLOCATORS: dict[str, BudgetAllocator] = {
    policy.name: policy
    for policy in (FairSplit(), WeightedSplit(), AdaptiveSplit(), VerifyAwareSplit())
}


def allocator_for(name: str) -> BudgetAllocator:
    """Look up an allocation policy by name (``fair|weighted|adaptive``)."""
    try:
        return ALLOCATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown budget policy {name!r}; have {sorted(ALLOCATORS)}"
        ) from None


class BudgetPool:
    """Live draw/settle accounting for a *serial* weighted fan-out.

    ``draw()`` hands the next child its allocation — a fixed up-front share
    for non-adaptive policies, or its weighted fraction of whatever is
    *actually* left for :class:`AdaptiveSplit` — always capped by the pool's
    remaining quotas and carrying the pool's absolute deadline, so the
    children can never collectively overspend the parent.  ``settle()``
    debits the quotas a child really consumed (time debits itself through
    the shared deadline).
    """

    def __init__(
        self,
        parent: Budget,
        weights: Sequence[float],
        allocator: BudgetAllocator,
        clock: Clock | None = None,
    ) -> None:
        self.parent = parent
        self.allocator = allocator
        self.clock: Clock = clock if clock is not None else time.monotonic
        self.weights = [max(float(w), 1e-9) for w in weights]
        self.started = self.clock()
        self.deadline = parent.deadline_at(self.started)
        self.total_time = (
            None if math.isinf(self.deadline) else self.deadline - self.started
        )
        self.nodes_left = parent.nodes
        self.iters_left = parent.iters
        self.matches_left = parent.matches
        self.bdd_nodes_left = parent.bdd_nodes
        self._shares = allocator.shares(self.weights)
        self._index = 0

    # ----------------------------------------------------------------- queries
    def time_left(self) -> float | None:
        if math.isinf(self.deadline):
            return None
        return max(0.0, self.deadline - self.clock())

    # ------------------------------------------------------------ draw / settle
    def draw(self) -> Budget:
        """The next child's budget (children are drawn in weight order)."""
        index = self._index
        self._index += 1
        time_left = self.time_left()
        if self.allocator.adaptive:
            weight_left = sum(self.weights[index:]) or 1.0
            fraction = self.weights[index] / weight_left
            time_share = None if time_left is None else time_left * fraction
            nodes = self._adaptive_share(self.nodes_left, fraction)
            iters = self._adaptive_share(self.iters_left, fraction)
            matches = self._adaptive_share(self.matches_left, fraction)
            bdd_nodes = self._adaptive_share(self.bdd_nodes_left, fraction)
        else:
            fraction = self._shares[index] if index < len(self._shares) else 0.0
            time_share = (
                None
                if self.total_time is None
                else min(self.total_time * fraction, time_left)
            )
            nodes = self._fixed_share(self.parent.nodes, self.nodes_left, fraction)
            iters = self._fixed_share(self.parent.iters, self.iters_left, fraction)
            matches = self._fixed_share(
                self.parent.matches, self.matches_left, fraction
            )
            bdd_nodes = self._fixed_share(
                self.parent.bdd_nodes, self.bdd_nodes_left, fraction
            )
        return Budget(
            time_s=time_share,
            deadline=None if math.isinf(self.deadline) else self.deadline,
            nodes=nodes,
            iters=iters,
            matches=matches,
            bdd_nodes=bdd_nodes,
        )

    @staticmethod
    def _adaptive_share(left, fraction):
        # Ceil, so a dribble of remaining quota still reaches the children
        # instead of flooring to an all-zero fan-out; clamped to the pool.
        return None if left is None else min(math.ceil(left * fraction), left)

    @staticmethod
    def _fixed_share(total, left, fraction):
        if total is None:
            return None
        return min(math.ceil(total * fraction), left)

    def settle(
        self,
        *,
        nodes: int = 0,
        iters: int = 0,
        matches: int = 0,
        bdd_nodes: int = 0,
    ) -> None:
        """Debit what a drawn child actually spent."""
        if self.nodes_left is not None:
            self.nodes_left = max(0, self.nodes_left - nodes)
        if self.iters_left is not None:
            self.iters_left = max(0, self.iters_left - iters)
        if self.matches_left is not None:
            self.matches_left = max(0, self.matches_left - matches)
        if self.bdd_nodes_left is not None:
            self.bdd_nodes_left = max(0, self.bdd_nodes_left - bdd_nodes)


def concurrent_children(
    parent: Budget,
    weights: Sequence[float],
    allocator: BudgetAllocator,
    now: float,
) -> list[Budget]:
    """Children for a *concurrent* fan-out (shards or jobs on a pool).

    Wall time is not additive across concurrency, so children get no
    ``time_s`` slices — they all race the parent's absolute deadline
    (meaningful across processes: ``time.monotonic`` is machine-wide).
    Countable quotas split by the policy's shares.
    """
    deadline = parent.deadline_at(now)
    children = allocator.split(
        replace(parent, time_s=None, deadline=None), weights
    )
    if math.isinf(deadline):
        return children
    return [replace(child, deadline=deadline) for child in children]


# ------------------------------------------------------------------- governor
class ResourceGovernor:
    """The accounted pool one pipeline run draws from.

    Every pipeline context carries one: its pool is the :class:`Budget` a
    run is given (``Pipeline.run(budget=…)``, ``Job.budget``, CLI
    ``--budget-ms``), or the unlimited ``Budget()`` when none is.
    Stages intersect their own knobs with :meth:`remaining` — which carries
    the governor's *absolute* deadline, fixing the historic bug where every
    nested ``Saturate`` restarted the clock — and :meth:`charge` their spend
    into a per-label ledger that :class:`~repro.pipeline.session.RunRecord`
    reports as allocated-vs-spent per stage and per shard.

    ``nodes`` in the governor's ledger means e-nodes *grown* (independent
    e-graphs sum; repeated stages on one graph don't double-charge its seed
    size).
    """

    def __init__(
        self,
        budget: Budget,
        clock: Clock | None = None,
        policy: str = "fair",
    ) -> None:
        self.budget = budget
        self.clock: Clock = clock if clock is not None else time.monotonic
        self.policy = policy
        self.started = self.clock()
        self.deadline = budget.deadline_at(self.started)
        #: Fraction of the wall window held back from search-side stages
        #: (nonzero only under a verify-aware policy).
        self.verify_tail = getattr(ALLOCATORS.get(policy), "verify_tail", 0.0)
        if math.isinf(self.deadline) or self.verify_tail <= 0.0:
            self.work_deadline = self.deadline
        else:
            # Saturate/Extract/shard fan-outs stop here; Verify races the
            # full deadline, so the reserved tail is verification's alone.
            self.work_deadline = self.started + (
                (self.deadline - self.started) * (1.0 - self.verify_tail)
            )
        self.spent_nodes = 0
        self.spent_iters = 0
        self.spent_matches = 0
        self.spent_bdd_nodes = 0
        #: label -> {"allocated": quota dict | None, "spent": spend dict}
        self.ledger: dict[str, dict] = {}

    # ----------------------------------------------------------------- queries
    def elapsed(self) -> float:
        return self.clock() - self.started

    def remaining(self) -> Budget:
        """The unspent pool as a child budget (the search-side view).

        Time comes back as the governor's *absolute* deadline (never a fresh
        relative span), so however many stages draw from the pool they all
        race one clock.  Under a verify-aware policy this is the *work*
        deadline — the reserved tail is only reachable through
        :attr:`deadline` itself, which ``Verify`` races directly.
        """
        return Budget(
            deadline=None if math.isinf(self.work_deadline) else self.work_deadline,
            nodes=self._left(self.budget.nodes, self.spent_nodes),
            iters=self._left(self.budget.iters, self.spent_iters),
            matches=self._left(self.budget.matches, self.spent_matches),
            bdd_nodes=self._left(self.budget.bdd_nodes, self.spent_bdd_nodes),
        )

    @staticmethod
    def _left(quota, spent):
        return None if quota is None else max(0, quota - spent)

    def exhausted(self) -> bool:
        """True once any governed quota has run dry."""
        if not math.isinf(self.deadline) and self.clock() >= self.deadline:
            return True
        remaining = self.remaining()
        return any(
            quota is not None and quota <= 0
            for quota in (
                remaining.nodes,
                remaining.iters,
                remaining.matches,
                remaining.bdd_nodes,
            )
        )

    # ---------------------------------------------------------------- charging
    def charge(
        self,
        label: str,
        *,
        time_s: float = 0.0,
        nodes: int = 0,
        iters: int = 0,
        matches: int = 0,
        bdd_nodes: int = 0,
        allocated: Budget | dict | None = None,
        reused_from: str | dict[str, str] | None = None,
    ) -> None:
        """Record spend under ``label`` (repeat labels accumulate).

        ``reused_from`` names whose work the row reused instead of redoing:
        a shard's name for a renamed shard result, or output -> output for
        verdicts a stage reused per output.  It lands on the row as is.
        """
        entry = self.ledger.setdefault(
            label, {"allocated": None, "spent": spend_dict()}
        )
        if reused_from is not None:
            entry["reused_from"] = reused_from
        if allocated is not None:
            quota = (
                allocated.as_dict(include_deadline=False)
                if isinstance(allocated, Budget)
                else dict(allocated)
            )
            if entry["allocated"] is None:
                entry["allocated"] = quota
            else:
                for key, value in quota.items():
                    entry["allocated"][key] = entry["allocated"].get(key, 0) + value
        spent = entry["spent"]
        spent["time_s"] = round(spent["time_s"] + time_s, 6)
        spent["nodes"] += nodes
        spent["iters"] += iters
        spent["matches"] += matches
        spent["bdd_nodes"] += bdd_nodes
        self.spent_nodes += nodes
        self.spent_iters += iters
        self.spent_matches += matches
        self.spent_bdd_nodes += bdd_nodes

    def charge_report(self, label: str, report, allocated=None) -> None:
        """Fold a :class:`~repro.egraph.runner.RunnerReport`'s spend in.

        Delegates to the report's own accounting (``nodes_grown`` charges
        the pre-rebuild peak, so a NODE_LIMIT stop always drains the pool).
        """
        self.charge(
            label,
            time_s=report.total_time,
            nodes=report.nodes_grown,
            iters=len(report.iterations),
            matches=report.matches_applied,
            allocated=allocated,
        )

    # ------------------------------------------------------------ serialization
    def as_dict(self) -> dict:
        """The run record's ``budget`` block: pool, totals, per-label ledger."""
        return {
            "policy": self.policy,
            "allocated": self.budget.as_dict(include_deadline=False),
            "spent": spend_dict(
                time_s=self.elapsed(),
                nodes=self.spent_nodes,
                iters=self.spent_iters,
                matches=self.spent_matches,
                bdd_nodes=self.spent_bdd_nodes,
            ),
            "stages": {
                label: {**entry, "spent": dict(entry["spent"])}
                for label, entry in self.ledger.items()
            },
        }
