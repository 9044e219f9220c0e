"""The resource-governance subsystem: budgets, allocators, governor.

Three invariant families pin the new API down:

* **hierarchy** — child budgets produced by any allocation policy never
  sum above the parent, componentwise (hypothesis-checked over random
  parents/weights, for both up-front ``split`` and live ``BudgetPool``
  draws);
* **bounded overspend** — a :class:`Budget` handed to the runner is never
  overspent by more than one iteration's slack (a few e-nodes past the cap,
  zero extra iterations);
* **ledger consistency** — the runner's ``StopReason`` agrees with the
  governor's ledger (``NODE_LIMIT`` ⇔ node pool dry, ``TIME_LIMIT`` ⇔
  deadline passed on the governor's own clock).

Plus the deadline regression the Budget redesign exists to fix: nested
``Saturate`` stages used to each restart the clock (``time.monotonic``
re-checked against their *own* start), so a phased schedule could overshoot
its wall budget by the number of stages.  With a governor they race one
absolute deadline — proved here with a fake clock.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.egraph import EGraph, Runner, StopReason, rewrite
from repro.ir import var
from repro.pipeline import (
    ALLOCATORS,
    Budget,
    BudgetPool,
    Ingest,
    Pipeline,
    ResourceGovernor,
    Saturate,
    allocator_for,
)
from repro.pipeline.budget import RUNNER_DEFAULT_BUDGET

GROWING_RULES = [
    rewrite("assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
    rewrite("comm", "(+ ?a ?b)", "(+ ?b ?a)"),
]


def chain(length: int):
    expr = var("x0", 4)
    for i in range(1, length):
        expr = expr + var(f"x{i}", 4)
    return expr


def chain_graph(length: int = 8) -> EGraph:
    g = EGraph()
    g.add_expr(chain(length))
    return g


class FakeClock:
    """A deterministic monotonic clock: every read advances by ``tick``."""

    def __init__(self, start: float = 0.0, tick: float = 0.0) -> None:
        self.now = start
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------- Budget value
class TestBudget:
    def test_unlimited_budget_has_no_quotas(self):
        budget = Budget.unlimited()
        assert budget.is_unlimited
        assert budget.deadline_at(5.0) == math.inf
        assert budget.as_dict() == {}

    def test_of_ms_builds_seconds(self):
        assert Budget.of_ms(2500).time_s == 2.5

    def test_deadline_at_takes_the_earlier_of_span_and_absolute(self):
        budget = Budget(time_s=10.0, deadline=7.0)
        assert budget.deadline_at(0.0) == 7.0  # inherited deadline wins
        assert budget.deadline_at(-5.0) == 5.0  # own span wins

    def test_intersect_is_componentwise_min_with_none_as_unlimited(self):
        tight = Budget(time_s=1.0, nodes=100).intersect(
            Budget(time_s=5.0, iters=3, matches=7)
        )
        assert tight == Budget(time_s=1.0, nodes=100, iters=3, matches=7)

    def test_scaled_floors_count_quotas_and_keeps_deadline(self):
        half = Budget(time_s=3.0, deadline=9.0, nodes=5, iters=3).scaled(0.5)
        assert half.time_s == 1.5
        assert half.deadline == 9.0  # an absolute instant cannot be scaled
        assert half.nodes == 2 and half.iters == 1

    def test_as_dict_can_omit_the_deadline(self):
        budget = Budget(time_s=1.0, deadline=99.0, nodes=5)
        assert "deadline" in budget.as_dict()
        assert "deadline" not in budget.as_dict(include_deadline=False)
        assert budget.as_dict(include_deadline=False) == {
            "time_s": 1.0,
            "nodes": 5,
        }

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown budget policy"):
            allocator_for("greedy")


# ------------------------------------------------- hierarchy (property (a))
budgets = st.builds(
    Budget,
    time_s=st.one_of(st.none(), st.floats(0.001, 1e4)),
    nodes=st.one_of(st.none(), st.integers(0, 10**6)),
    iters=st.one_of(st.none(), st.integers(0, 100)),
    matches=st.one_of(st.none(), st.integers(0, 10**6)),
)
weight_lists = st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12)


class TestAllocationHierarchy:
    @settings(max_examples=200, deadline=None)
    @given(budget=budgets, weights=weight_lists, policy=st.sampled_from(sorted(ALLOCATORS)))
    def test_split_children_never_sum_above_parent(self, budget, weights, policy):
        children = allocator_for(policy).split(budget, weights)
        assert len(children) == len(weights)
        for quota in ("nodes", "iters", "matches"):
            parent = getattr(budget, quota)
            if parent is None:
                assert all(getattr(c, quota) is None for c in children)
            else:
                assert sum(getattr(c, quota) for c in children) <= parent
        if budget.time_s is None:
            assert all(c.time_s is None for c in children)
        else:
            assert sum(c.time_s for c in children) <= budget.time_s * (1 + 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        budget=budgets,
        weights=weight_lists,
        policy=st.sampled_from(sorted(ALLOCATORS)),
        data=st.data(),
    )
    def test_live_pool_never_lets_children_overspend_parent(
        self, budget, weights, policy, data
    ):
        """Sequential draw/settle — with arbitrary per-child spends — never
        hands a child more than the pool has left, so children that spend
        within their allocations cannot collectively overspend the parent.
        (Cumulative *allocations* may exceed the parent under the adaptive
        policy: an underspending child refunds its slack, which is then
        re-allocated — spend is the conserved quantity, not offers.)"""
        clock = FakeClock(tick=0.0)
        pool = BudgetPool(budget, weights, allocator_for(policy), clock=clock)
        spent = {"time_s": 0.0, "nodes": 0, "iters": 0, "matches": 0}
        for _ in weights:
            left = {
                "nodes": pool.nodes_left,
                "iters": pool.iters_left,
                "matches": pool.matches_left,
            }
            time_left = pool.time_left()
            child = pool.draw()
            for quota in ("nodes", "iters", "matches"):
                value = getattr(child, quota)
                parent = getattr(budget, quota)
                assert (value is None) == (parent is None)
                if value is not None:
                    assert value <= left[quota]  # never more than the pool has
            if budget.time_s is None:
                assert child.time_s is None and child.deadline is None
            else:
                assert child.time_s <= time_left * (1 + 1e-9)
                assert child.deadline == pool.deadline  # hard cap inherited
            # The child spends some arbitrary fraction of its allocation.
            spent_frac = data.draw(st.floats(0.0, 1.0))
            consumed = {
                quota: int((getattr(child, quota) or 0) * spent_frac)
                for quota in ("nodes", "iters", "matches")
            }
            pool.settle(**consumed)
            for quota, value in consumed.items():
                spent[quota] += value
            if child.time_s is not None:
                clock.advance(child.time_s * spent_frac)
                spent["time_s"] += child.time_s * spent_frac
        for quota in ("nodes", "iters", "matches"):
            parent = getattr(budget, quota)
            if parent is not None:
                assert spent[quota] <= parent
        if budget.time_s is not None:
            assert spent["time_s"] <= budget.time_s * (1 + 1e-6)

    def test_adaptive_pool_recycles_unspent_time(self):
        """A fast first child's slack flows to later children (the whole
        point of the adaptive policy)."""
        clock = FakeClock(tick=0.0)
        pool = BudgetPool(
            Budget(time_s=8.0), [1.0] * 4, allocator_for("adaptive"), clock=clock
        )
        first = pool.draw()
        assert first.time_s == pytest.approx(2.0)  # fair share of 4
        clock.advance(0.5)  # the child finished 1.5s early
        pool.settle()
        second = pool.draw()
        # 7.5s left across 3 children: more than the original fair share.
        assert second.time_s == pytest.approx(7.5 / 3)
        assert second.time_s > first.time_s

    def test_fair_pool_does_not_recycle(self):
        clock = FakeClock(tick=0.0)
        pool = BudgetPool(
            Budget(time_s=8.0), [1.0] * 4, allocator_for("fair"), clock=clock
        )
        assert pool.draw().time_s == pytest.approx(2.0)
        clock.advance(0.5)
        pool.settle()
        assert pool.draw().time_s == pytest.approx(2.0)  # still the share

    def test_weighted_split_is_proportional_to_cone_size(self):
        children = allocator_for("weighted").split(
            Budget(time_s=6.0, nodes=600), [1.0, 2.0, 3.0]
        )
        assert [c.time_s for c in children] == pytest.approx([1.0, 2.0, 3.0])
        assert [c.nodes for c in children] == [100, 200, 300]

    def test_every_child_inherits_the_pool_deadline(self):
        clock = FakeClock(start=100.0, tick=0.0)
        pool = BudgetPool(
            Budget(time_s=4.0), [1.0, 1.0], allocator_for("adaptive"), clock=clock
        )
        for _ in range(2):
            child = pool.draw()
            assert child.deadline == pytest.approx(104.0)
            pool.settle()


# ------------------------------------------------------------ Runner budgets
class TestRunnerBudget:
    def test_budget_iteration_quota_matches_legacy_iter_limit(self):
        governed = Runner(chain_graph(6), GROWING_RULES, budget=Budget(iters=3)).run()
        assert governed.stop_reason is StopReason.ITERATION_LIMIT
        assert len(governed.iterations) == 3

    def test_default_budget_keeps_the_historical_limits(self):
        runner = Runner(chain_graph(6), GROWING_RULES)
        assert runner.budget == RUNNER_DEFAULT_BUDGET
        assert runner.budget == Budget(iters=16, nodes=50_000, time_s=120.0)
        report = runner.run()
        assert report.budget == RUNNER_DEFAULT_BUDGET

    def test_removed_limit_kwargs_are_rejected(self):
        with pytest.raises(TypeError):
            Runner(chain_graph(4), GROWING_RULES, iter_limit=2)

    def test_match_quota_stops_with_match_limit(self):
        report = Runner(
            chain_graph(8), GROWING_RULES, budget=Budget(matches=5, iters=50)
        ).run()
        assert report.stop_reason is StopReason.MATCH_LIMIT
        # The over-quota search's matches are not applied: the graph stops
        # growing the moment the quota trips.
        assert report.iterations[-1].applied == {}

    def test_absolute_deadline_in_the_past_stops_immediately(self):
        clock = FakeClock(start=50.0, tick=0.001)
        report = Runner(
            chain_graph(8),
            GROWING_RULES,
            budget=Budget(deadline=10.0, iters=50),
            clock=clock,
        ).run()
        assert report.stop_reason is StopReason.TIME_LIMIT
        assert report.iterations[0].applied == {}

    def test_report_carries_allocated_vs_spent(self):
        budget = Budget(iters=2, nodes=9_000)
        report = Runner(chain_graph(6), GROWING_RULES, budget=budget).run()
        assert report.budget == budget
        block = report.as_dict()["budget"]
        assert block["allocated"] == {"nodes": 9_000, "iters": 2}
        assert block["spent"]["iters"] == 2
        assert block["spent"]["nodes"] == report.nodes_grown > 0
        assert block["spent"]["matches"] == report.matches_applied > 0

    # ------------------------------------------- bounded overspend (prop (b))
    @settings(max_examples=40, deadline=None)
    @given(length=st.integers(4, 9), nodes=st.integers(20, 600))
    def test_node_quota_overspent_by_at_most_one_application(self, length, nodes):
        report = Runner(
            chain_graph(length),
            GROWING_RULES,
            budget=Budget(nodes=nodes, iters=30),
        ).run()
        # The cap is checked after every single rule application, so the
        # worst case is the handful of e-nodes one application inserts.
        # (A NODE_LIMIT stop need not end strictly *above* the cap: the
        # closing rebuild can hashcons-merge the overshoot back down.)
        assert report.nodes <= nodes + 8

    @settings(max_examples=40, deadline=None)
    @given(length=st.integers(4, 9), iters=st.integers(0, 6))
    def test_iteration_quota_is_never_overspent(self, length, iters):
        report = Runner(
            chain_graph(length),
            GROWING_RULES,
            budget=Budget(iters=iters, nodes=10**6),
        ).run()
        assert len(report.iterations) <= iters

    def test_time_budget_overspent_by_at_most_one_check_interval(self):
        # Every clock read advances 1ms; the runner must notice the
        # deadline within one rule-search / one application of wall time.
        clock = FakeClock(tick=0.001)
        budget = Budget(time_s=0.05, iters=10**6)
        report = Runner(
            chain_graph(8), GROWING_RULES, budget=budget, clock=clock
        ).run()
        assert report.stop_reason is StopReason.TIME_LIMIT
        assert report.total_time <= budget.time_s + 0.02


# ------------------------------------------------- governor + staged deadline
def governed_pipeline(stages, budget, clock):
    return Pipeline(stages).run(budget=budget, clock=clock)


class TestGovernedStages:
    def test_stage_timings_use_the_injected_clock(self):
        """`repro lint`'s AR-CLOCK rule exists so this works: stage wall
        times are measured on the injectable clock, not a bare
        ``time.perf_counter()``, making timing-sensitive behaviour
        reproducible under a fake clock."""
        clock = FakeClock(tick=1.0)
        ctx = Pipeline([Ingest(roots={"out": chain(3)})]).run(clock=clock)
        assert ctx.timings == [("ingest", 1.0)]

    def test_nested_saturates_share_one_deadline(self):
        """The double-charging regression: two Saturate stages under a 1s
        governor spend ~1s *total*, not 1s each.  Before the governor each
        stage re-derived its deadline from its own ``time.monotonic()``
        start, so phased schedules overshot by the stage count."""
        clock = FakeClock(tick=0.001)
        ctx = governed_pipeline(
            [
                Ingest(roots={"out": chain(8)}),
                Saturate(GROWING_RULES, iter_limit=10**6, time_limit=10**6),
                Saturate(GROWING_RULES, iter_limit=10**6, time_limit=10**6),
            ],
            budget=Budget(time_s=1.0),
            clock=clock,
        )
        assert [r.stop_reason for r in ctx.reports] == [
            StopReason.TIME_LIMIT,
            StopReason.TIME_LIMIT,
        ]
        # Total virtual elapsed stays within the single shared budget (plus
        # a few check intervals), instead of ~2x for two stages.
        assert ctx.governor.elapsed() <= 1.0 + 0.1
        # And the second stage really was handed only the leftovers.
        assert ctx.reports[1].total_time <= 0.1

    def test_ledger_reports_allocated_vs_spent_per_stage(self):
        ctx = governed_pipeline(
            [
                Ingest(roots={"out": chain(6)}),
                Saturate(GROWING_RULES, iter_limit=2, label="phase-a"),
                Saturate(GROWING_RULES, iter_limit=2, label="phase-b"),
            ],
            budget=Budget(time_s=100.0, nodes=50_000),
            clock=None,
        )
        block = ctx.governor.as_dict()
        # The saturation phases have quota allocations; every other stage
        # (here: ingest) is still wall-ledgered, so no stage escapes the
        # budget accounting.
        assert set(block["stages"]) == {"ingest", "phase-a", "phase-b"}
        for label in ("phase-a", "phase-b"):
            row = block["stages"][label]
            assert row["allocated"]["nodes"] <= 50_000
            assert row["spent"]["iters"] <= 2
        total = block["spent"]
        assert total["iters"] == sum(
            row["spent"]["iters"] for row in block["stages"].values()
        )

    @settings(max_examples=25, deadline=None)
    @given(nodes=st.integers(10, 500))
    def test_stop_reason_consistent_with_governor_ledger(self, nodes):
        """Property (c): NODE_LIMIT ⇔ the governor's node pool ran dry."""
        ctx = governed_pipeline(
            [
                Ingest(roots={"out": chain(8)}),
                Saturate(GROWING_RULES, iter_limit=4),
            ],
            budget=Budget(nodes=nodes),
            clock=None,
        )
        report = ctx.report
        remaining = ctx.governor.remaining()
        if report.stop_reason is StopReason.NODE_LIMIT:
            # The ledger charges the pre-rebuild peak, so a NODE_LIMIT stop
            # always means the pool really ran dry — even when the closing
            # rebuild merged the overshoot back below the cap.
            assert remaining.nodes == 0
        else:
            assert remaining.nodes >= 0
            assert report.stop_reason in (
                StopReason.SATURATED,
                StopReason.ITERATION_LIMIT,
            )

    def test_time_limit_stop_agrees_with_the_governor_clock(self):
        clock = FakeClock(tick=0.001)
        ctx = governed_pipeline(
            [
                Ingest(roots={"out": chain(8)}),
                Saturate(GROWING_RULES, iter_limit=10**6, time_limit=10**6),
            ],
            budget=Budget(time_s=0.2),
            clock=clock,
        )
        assert ctx.report.stop_reason is StopReason.TIME_LIMIT
        governor = ctx.governor
        assert governor.clock() >= governor.deadline
        assert governor.exhausted()

    def test_governor_remaining_carries_absolute_deadline_not_a_span(self):
        clock = FakeClock(start=10.0, tick=0.0)
        governor = ResourceGovernor(Budget(time_s=5.0), clock=clock)
        remaining = governor.remaining()
        assert remaining.time_s is None
        assert remaining.deadline == pytest.approx(15.0)
        clock.advance(100.0)
        # Still the same instant — a consumer starting late gets nothing,
        # rather than a fresh 5s span.
        assert governor.remaining().deadline == pytest.approx(15.0)
