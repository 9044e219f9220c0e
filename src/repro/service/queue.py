"""Multi-tenant fair-share job queue over the session machinery.

Tenants declare themselves (name + weight) when the queue is built; the
queue splits any service-level :class:`~repro.pipeline.budget.Budget`
across them with the existing :class:`~repro.pipeline.budget.
BudgetAllocator` policies — the same code that splits a job across shards
splits the service across tenants — and keeps a per-tenant
allocated-vs-spent ledger, so fairness is checkable after the fact rather
than assumed.

Draining runs each submission through three explicit scheduler phases:

- **admit** — content-address the job (:func:`~repro.service.cache.
  job_cache_key`) and serve a cache hit without touching the pipeline;
- **allot** — draw the job's budget slice from its tenant's remaining
  share; the *match quota* is rationed here too (an adaptive
  ``remaining / pending`` slice of the tenant's e-match allowance), so one
  churn-heavy submission cannot starve the tenant's later jobs of matches;
- **dispatch** — hand the allotted round to the existing
  :class:`~repro.pipeline.session.Session` machinery, in-process (the
  daemon dispatches from its drain thread, and forking a threaded process
  is unsafe), then settle the ledger from each record's governor block and
  stamp service provenance (``tenant``/``queue_wait_s``) onto the record.

Rounds are round-robin across tenants (one job per tenant per round), so a
tenant with a deep backlog cannot head-of-line-block the others.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.pipeline.budget import (
    Budget,
    Clock,
    allocator_for,
    spend_dict,
)
from repro.pipeline.schedule import is_sharded
from repro.pipeline.session import Job, RunRecord, Session
from repro.service.cache import ResultCache, job_cache_key, warm_family
from repro.service.events import Event, EventFeed, events_from_record

__all__ = ["TenantShare", "Submission", "OptimizationQueue"]


@dataclass(frozen=True)
class TenantShare:
    """A tenant's declared slice of the service: a name and a weight."""

    name: str
    weight: float = 1.0


@dataclass
class Submission:
    """One queued job: who asked, what for, and what came of it."""

    ticket: int
    tenant: str
    job: Job
    submitted_at: float
    cache_key: str = ""
    status: str = "queued"  # "queued" | "done" | "error"
    record: RunRecord | None = None
    dispatched_at: float | None = None


@dataclass
class _TenantAccount:
    """Per-tenant fair-share ledger: a ceiling and the spend against it."""

    share: TenantShare
    ceiling: Budget | None
    spent: dict = field(default_factory=spend_dict)
    jobs: int = 0
    cache_hits: int = 0

    def _left(self, quota: str) -> int | None:
        total = getattr(self.ceiling, quota) if self.ceiling else None
        if total is None:
            return None
        return max(0, int(total) - self.spent[quota])

    def draw(self, pending: int) -> Budget | None:
        """An adaptive ``remaining / pending`` slice of this tenant's share."""
        if self.ceiling is None:
            return None
        fraction = 1.0 / max(pending, 1)

        def slice_of(left):
            if left is None:
                return None
            return min(math.ceil(left * fraction), left)

        time_total = self.ceiling.time_s
        time_left = (
            None
            if time_total is None
            else max(0.0, time_total - self.spent["time_s"])
        )
        return Budget(
            time_s=None if time_left is None else time_left * fraction,
            deadline=self.ceiling.deadline,
            nodes=slice_of(self._left("nodes")),
            iters=slice_of(self._left("iters")),
            bdd_nodes=slice_of(self._left("bdd_nodes")),
            # matches are rationed by the explicit match-quota phase.
        )

    def match_quota(self, pending: int) -> int | None:
        """The match-quota phase: this job's slice of remaining e-matches."""
        left = self._left("matches")
        if left is None:
            return None
        return min(math.ceil(left / max(pending, 1)), left)

    def settle(self, record: RunRecord) -> None:
        spent = record.budget.get("spent", {}) if record.budget else {}
        self.spent["time_s"] = round(
            self.spent["time_s"] + spent.get("time_s", record.runtime_s), 6
        )
        for quota in ("nodes", "iters", "matches", "bdd_nodes"):
            self.spent[quota] += spent.get(quota, 0)
        self.jobs += 1

    def as_dict(self) -> dict:
        return {
            "weight": self.share.weight,
            "allocated": self.ceiling.as_dict() if self.ceiling else {},
            "spent": dict(self.spent),
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
        }


class OptimizationQueue:
    """Fair-share submission queue draining onto :class:`Session` runs.

    >>> queue = OptimizationQueue(
    ...     [TenantShare("team-a"), TenantShare("team-b", weight=2.0)],
    ...     budget=Budget(iters=90),
    ... )                                                # doctest: +SKIP

    ``budget_policy`` picks both how the service budget splits across
    tenants and the default per-run governor policy (``verify-aware`` by
    default: a daemon's submissions ask for verification, and a
    saturate-heavy neighbour must not push their checks into timeout).
    """

    def __init__(
        self,
        tenants: Sequence[TenantShare],
        budget: Budget | None = None,
        budget_policy: str = "verify-aware",
        cache: ResultCache | None = None,
        feed: EventFeed | None = None,
        clock: Clock | None = None,
    ) -> None:
        if not tenants:
            raise ValueError("a service queue needs at least one tenant")
        names = [share.name for share in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.budget = budget
        self.budget_policy = budget_policy
        self.cache = cache if cache is not None else ResultCache()
        self.feed = feed if feed is not None else EventFeed()
        self.clock: Clock = clock if clock is not None else time.monotonic
        allocator = allocator_for(budget_policy)
        if budget is None:
            ceilings: list[Budget | None] = [None] * len(tenants)
        else:
            ceilings = allocator.split(
                budget, [share.weight for share in tenants]
            )
        self.accounts = {
            share.name: _TenantAccount(share, ceiling)
            for share, ceiling in zip(tenants, ceilings, strict=True)
        }
        self.submissions: list[Submission] = []
        # submit() is called from the daemon's accept thread while the
        # worker thread drains; ticket assignment needs the lock (the rest
        # of the queue is only ever touched by the draining thread).
        self._submit_lock = threading.Lock()

    # ------------------------------------------------------------- submitting
    def submit(self, job: Job, tenant: str) -> Submission:
        """Enqueue a job for a tenant; returns its ticket immediately."""
        if tenant not in self.accounts:
            raise KeyError(
                f"unknown tenant {tenant!r}; have {sorted(self.accounts)}"
            )
        cache_key = job_cache_key(job)
        with self._submit_lock:
            submission = Submission(
                ticket=len(self.submissions),
                tenant=tenant,
                job=job,
                submitted_at=self.clock(),
                cache_key=cache_key,
            )
            self.submissions.append(submission)
        self.feed.emit(
            Event(job=job.name, tenant=tenant, kind="queued")
        )
        return submission

    def pending(self, tenant: str | None = None) -> list[Submission]:
        return [
            sub
            for sub in list(self.submissions)
            if sub.status == "queued"
            and (tenant is None or sub.tenant == tenant)
        ]

    # --------------------------------------------------------------- draining
    def drain(self) -> list[RunRecord]:
        """Run every queued submission to a record (in completion order)."""
        records: list[RunRecord] = []
        while self.pending():
            records.extend(self._run_round())
        return records

    def _run_round(self) -> list[RunRecord]:
        """One fair round: at most one queued job per tenant."""
        round_subs: list[Submission] = []
        for tenant in self.accounts:
            backlog = self.pending(tenant)
            if backlog:
                round_subs.append(backlog[0])
        executed: list[tuple[Submission, Job]] = []
        records: list[RunRecord] = []
        for sub in round_subs:
            cached = self._admit(sub)
            if cached is not None:
                records.append(cached)
            else:
                executed.append((sub, self._allot(sub)))
        records.extend(self._dispatch(executed))
        return records

    # ---------------------------------------------------------------- phases
    def _admit(self, sub: Submission) -> RunRecord | None:
        """Serve from the content-addressed cache; None means run it."""
        hit = self.cache.get(sub.cache_key)
        if hit is None:
            return None
        record = replace(
            hit,
            job=sub.job.name,
            tenant=sub.tenant,
            queue_wait_s=round(self.clock() - sub.submitted_at, 6),
        )
        account = self.accounts[sub.tenant]
        account.cache_hits += 1
        sub.status = "done"
        sub.record = record
        # submit() already emitted the live "queued" event; replay the rest.
        self.feed.extend(events_from_record(record)[1:])
        return record

    def _allot(self, sub: Submission) -> Job:
        """Draw the job's budget slice from its tenant's fair share."""
        account = self.accounts[sub.tenant]
        sub.dispatched_at = self.clock()
        pending = len(self.pending(sub.tenant))
        draw = account.draw(pending)
        quota = account.match_quota(pending)
        if quota is not None:
            draw = replace(draw, matches=quota)
        if draw is None:
            budget = sub.job.budget
        elif sub.job.budget is None:
            budget = draw
        else:
            budget = sub.job.budget.intersect(draw)
        job = replace(
            sub.job, budget=budget, budget_policy=self.budget_policy
        )
        return self._warm(job)

    def _warm(self, job: Job) -> Job:
        """Attach the e-graph artifact tier: a cache *miss* (edited design,
        new limits) still seeds from the design family's persisted graph
        and refreshes the artifact for the next submission."""
        if self.cache.egraph_dir is None:
            return job  # pathless cache: no artifact tier
        if is_sharded(job):
            return job  # warm-start composes with monolithic schedules only
        if job.warm_start or job.save_egraph:
            return job  # the submitter pinned explicit artifact paths
        family = warm_family(job)
        artifact = self.cache.get_egraph(family)
        return replace(
            job,
            warm_start=str(artifact) if artifact is not None else None,
            save_egraph=str(self.cache.egraph_path(family)),
        )

    def _dispatch(
        self, executed: list[tuple[Submission, Job]]
    ) -> list[RunRecord]:
        """Run one allotted round through the Session machinery."""
        if not executed:
            return []
        session = Session(jobs=[job for _, job in executed], workers=1)
        records = []
        for sub, record in zip(
            [s for s, _ in executed], session.run(), strict=True
        ):
            record.tenant = sub.tenant
            record.queue_wait_s = round(sub.dispatched_at - sub.submitted_at, 6)
            account = self.accounts[sub.tenant]
            account.settle(record)
            self.cache.put(sub.cache_key, record)
            sub.status = "done" if record.status == "ok" else "error"
            sub.record = record
            self.feed.extend(events_from_record(record)[1:])
            records.append(record)
        return records

    # ------------------------------------------------------------- telemetry
    def ledger(self) -> dict:
        """Per-tenant allocated-vs-spent (the fairness audit trail)."""
        return {name: acct.as_dict() for name, acct in self.accounts.items()}
