"""Saturation runner and extraction."""

import pytest

from repro.egraph import (
    AstDepthCost,
    AstSizeCost,
    EGraph,
    Extractor,
    Runner,
    StopReason,
    rewrite,
)
from repro.egraph.runner import BackoffScheduler
from repro.ir import ops, var
from repro.ir.expr import Expr
from repro.pipeline.budget import Budget


BASIC_RULES = [
    rewrite("add-comm", "(+ ?a ?b)", "(+ ?b ?a)"),
    rewrite("mul-two", "(* ?a 2)", "(<< ?a 1)"),
    rewrite("shl-shr", "(>> (<< ?a 1) 1)", "?a"),
    rewrite("add-zero", "(+ ?a 0)", "?a"),
]


class TestRunner:
    def test_saturates_on_small_graph(self):
        g = EGraph()
        root = g.add_expr((var("x", 4) * 2) >> 1)
        report = Runner(g, BASIC_RULES, budget=Budget(iters=10)).run()
        assert report.stop_reason is StopReason.SATURATED
        assert Extractor(g, AstSizeCost()).expr_of(root) == var("x", 4)

    def test_iteration_limit(self):
        # Associativity alone never saturates on a long chain.
        rules = [
            rewrite("assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
            rewrite("comm", "(+ ?a ?b)", "(+ ?b ?a)"),
        ]
        g = EGraph()
        x = var("x", 4)
        e = x
        for i in range(6):
            e = e + var(f"y{i}", 4)
        g.add_expr(e)
        report = Runner(g, rules, budget=Budget(iters=3, nodes=10**6)).run()
        assert report.stop_reason is StopReason.ITERATION_LIMIT
        assert len(report.iterations) == 3

    def test_node_limit_respected(self):
        rules = [
            rewrite("assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
            rewrite("comm", "(+ ?a ?b)", "(+ ?b ?a)"),
        ]
        g = EGraph()
        e = var("x0", 4)
        for i in range(1, 8):
            e = e + var(f"x{i}", 4)
        g.add_expr(e)
        report = Runner(g, rules, budget=Budget(iters=50, nodes=500)).run()
        assert report.stop_reason is StopReason.NODE_LIMIT

    def test_once_rules_fire_once(self):
        g = EGraph()
        g.add_expr(var("x", 4) + 0)
        rule = rewrite("add-zero-once", "(+ ?a 0)", "?a", once=True)
        report = Runner(g, [rule], budget=Budget(iters=5)).run()
        total = sum(it.applied.get("add-zero-once", 0) for it in report.iterations)
        assert total == 1

    def test_report_summary_mentions_counts(self):
        g = EGraph()
        g.add_expr(var("x", 4) * 2)
        report = Runner(g, BASIC_RULES, budget=Budget(iters=4)).run()
        text = report.summary()
        assert "nodes" in text and "classes" in text

    def test_iteration_stats_record_before_and_after(self):
        g = EGraph()
        g.add_expr((var("x", 4) * 2) + 0)
        report = Runner(g, BASIC_RULES, budget=Budget(iters=5)).run()
        growing = report.iterations[0]
        # The first iteration applies rewrites, so the graph really grows —
        # and both sides of the growth are visible, not overwritten.
        assert growing.nodes_before < growing.nodes_after
        assert growing.node_growth == growing.nodes_after - growing.nodes_before
        last = report.iterations[-1]
        assert (report.nodes, report.classes) == (last.nodes_after, last.classes_after)

    def test_time_limit_stops_mid_iteration(self):
        # A zero budget must be noticed inside the very first search loop,
        # not only after a full (potentially unbounded) iteration.
        rules = [
            rewrite("assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
            rewrite("comm", "(+ ?a ?b)", "(+ ?b ?a)"),
        ]
        g = EGraph()
        e = var("x0", 4)
        for i in range(1, 8):
            e = e + var(f"x{i}", 4)
        g.add_expr(e)
        report = Runner(g, rules, budget=Budget(iters=50, nodes=10**6, time_s=0.0)).run()
        assert report.stop_reason is StopReason.TIME_LIMIT
        assert len(report.iterations) == 1
        assert report.iterations[0].applied == {}

    def test_invariants_hold_after_every_iteration(self):
        g = EGraph()
        e = var("x0", 4)
        for i in range(1, 5):
            e = (e + var(f"x{i}", 4)) * 2
        g.add_expr(e + 0)
        report = Runner(g, BASIC_RULES, budget=Budget(iters=6), check_invariants=True).run()
        assert report.iterations  # check_invariants raised nowhere


class TestBackoffScheduler:
    def test_bans_greedy_rule(self):
        sched = BackoffScheduler(match_limit=10, ban_length=2)
        rule = BASIC_RULES[0]
        assert sched.enabled(rule, 0)
        sched.record(rule, matches=50, iteration=0)
        assert not sched.enabled(rule, 1)
        assert not sched.enabled(rule, 2)
        assert sched.enabled(rule, 3)

    def test_budget_doubles_after_ban(self):
        sched = BackoffScheduler(match_limit=10)
        rule = BASIC_RULES[0]
        sched.record(rule, matches=50, iteration=0)
        assert sched.budget(rule) == 20


class TestExtraction:
    def test_ast_size_picks_smallest(self):
        g = EGraph()
        x = var("x", 4)
        root = g.add_expr((x + 0) + 0)
        Runner(g, BASIC_RULES, budget=Budget(iters=5)).run()
        assert Extractor(g, AstSizeCost()).expr_of(root) == x

    def test_cost_of_reports_minimum(self):
        g = EGraph()
        x = var("x", 4)
        root = g.add_expr(x + 0)
        Runner(g, BASIC_RULES, budget=Budget(iters=5)).run()
        assert Extractor(g, AstSizeCost()).cost_of(root) == 1

    def test_depth_cost(self):
        g = EGraph()
        x = var("x", 4)
        root = g.add_expr((x + 0) * 2)
        Runner(g, BASIC_RULES, budget=Budget(iters=5)).run()
        ex = Extractor(g, AstDepthCost())
        assert ex.expr_of(root).depth() == 2  # x << 1 or x * 2

    def test_extraction_tolerates_cycles(self):
        """x = x + 0 style cycles must not break extraction."""
        g = EGraph()
        x = var("x", 4)
        x_id = g.add_expr(x)
        plus = g.add_node(ops.ADD, (), (x_id, g.add_const(0)))
        g.union(x_id, plus)  # class now contains ADD(self, 0)
        g.rebuild()
        assert Extractor(g, AstSizeCost()).expr_of(x_id) == x

    @pytest.mark.parametrize("strip", [True, False])
    def test_a_cycle_two_classes_deep_falls_back_at_the_top(self, strip):
        """The cheapest-ranked node of ``x``'s class is a wire through a
        class whose only node leads back to ``x``: that class fails as a
        whole, and ``x``'s class falls back to its next-ranked node."""
        g = EGraph()
        x = g.add_node(ops.VAR, ("x", 4))
        c = g.add_node(ops.VAR, ("c", 1))
        inner = g.add_node(ops.ASSUME, (), (x, c))
        outer = g.add_node(ops.ASSUME, (), (inner, c))
        g.union(x, outer)  # x's class: {Var(x), ASSUME(inner, c)}
        g.rebuild()
        ex = Extractor(g, AstSizeCost(), strip_assumes=strip)
        ranked = ex._ranked(g.find(x))
        assert [n.op for n in ranked] == [ops.ASSUME, ops.VAR]  # tie, by repr
        leaf = var("x", 4)
        assert ex.expr_of(x) == leaf
        expected = leaf if strip else Expr(ops.ASSUME, (), (leaf, var("c", 1)))
        assert ex.expr_of(inner) == expected

    def test_assume_is_free_and_stripped(self):
        from repro.ir.expr import assume, gt

        g = EGraph()
        x = var("x", 4)
        wrapped = g.add_expr(assume(x + 1, gt(x, 0)))
        ex = Extractor(g, AstSizeCost())
        assert ex.expr_of(wrapped) == x + 1
        assert ex.cost_of(wrapped) == 3  # cost of x + 1 only

    def test_assume_kept_on_request(self):
        from repro.ir.expr import assume, gt

        g = EGraph()
        x = var("x", 4)
        e = assume(x + 1, gt(x, 0))
        wrapped = g.add_expr(e)
        ex = Extractor(g, AstSizeCost(), strip_assumes=False)
        assert ex.expr_of(wrapped) == e
