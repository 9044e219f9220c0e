"""Mutation self-test for the rule-soundness auditor.

Two halves, per the subsystem's acceptance bar:

* a corpus of deliberately broken rules — dropped variable without a
  guard, impure condition, semantically unsound identity, RHS using an
  unbound variable, mutants of the range-guarded ``trunc-elim`` with
  its search-time guard dropped, off by one, opaque or impure, and one
  mutant per rule-language feature (an arm, a computed constant, a
  constraint tail, a tail quantifier, a range-derived attribute, a
  structural guard, a tail lookup, an operator set, an as-pattern, ``max``
  and an attribute upper bound) — each of which the auditor must flag;
* the shipped rulesets, every one of which the auditor must pass, with
  every rule carrying an exhaustive proof (or a recorded trial budget).
"""

from __future__ import annotations

import pytest

from repro.egraph.pattern import PatternNode, parse_pattern
from repro.egraph.rewrite import Arm, Rewrite, rewrite
from repro.lint.rules import (
    audit_rule,
    audit_rules,
    audit_rulesets,
    eval_pattern,
    guard_spec,
    strictly_evaluated_vars,
)
from repro.ir import ops
from repro.rewrites.assume import (
    assume_distribute_rule,
    assume_mux_prune_rule,
    mux_branch_assume_rule,
)
from repro.rewrites.casesplit import split_sub_shift_rule
from repro.rewrites.mux import mux_pull_rule
from repro.rewrites.range_rules import lzc_norm_invariant_rule, lzc_width_reduce_rule
from repro.rewrites.rulesets import RULESETS
from repro.rewrites.soundness import (
    among,
    attr_lt,
    bounded,
    darm,
    derive,
    drule,
    fits,
    nonneg,
    pow2,
    range_le,
    total,
    truthy,
    unassumed,
    unless,
)
from repro.ir.evaluate import BOT


def rule_ids(findings):
    return {f.rule_id for f in findings}


# ------------------------------------------------------------------ corpus
class TestMutationCorpus:
    def test_dropped_var_without_guard_is_flagged(self):
        # `a + b -> a` silently forgets b; a * valuation of b distinguishes
        # the sides, which is exactly what the missing guard would exclude.
        bad = rewrite("bad-drop", "(+ ?a ?b)", "?a")
        findings, _ = audit_rule(bad, "corpus")
        assert "RU-DROPPED" in rule_ids(findings)
        # The semantic audit independently catches the same hole.
        assert "RU-UNSOUND" in rule_ids(findings)

    def test_sub_self_without_guard_is_flagged(self):
        # The ISSUE's canonical example: `a - a -> 0` is only sound when a
        # is total (a = * makes the LHS * but the RHS 0).
        bad = rewrite("bad-sub-self", "(- ?a ?a)", "0")
        findings, _ = audit_rule(bad, "corpus")
        assert "RU-DROPPED" in rule_ids(findings)
        assert "RU-UNSOUND" in rule_ids(findings)

    def test_guarded_sub_self_passes(self):
        good = drule("good-sub-self", "(- ?a ?a)", "0")
        findings, record = audit_rule(good, "corpus")
        assert findings == []
        assert record["status"] == "proved"

    def test_semantically_wrong_rule_with_guard_is_flagged(self):
        # Guards present and pure, but the algebra is just wrong.
        bad = drule("bad-add-as-mul", "(+ ?a ?b)", "(* ?a ?b)")
        findings, record = audit_rule(bad, "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}
        assert record["status"] == "failed"
        [finding] = findings
        assert "counterexample" in finding.detail

    def test_counterexample_renders_bot_as_star(self):
        bad = rewrite("bad-drop-star", "(& ?a ?b)", "?a")
        findings, _ = audit_rule(bad, "corpus")
        unsound = [f for f in findings if f.rule_id == "RU-UNSOUND"]
        assert unsound and "*" in str(unsound[0].detail["counterexample"])

    def test_impure_condition_is_flagged(self):
        def mutating_condition(egraph, env):
            egraph.union(env["a"], env["a"])
            return True

        bad = Rewrite(
            "bad-impure",
            (Arm(parse_pattern("(+ ?a 0)"), parse_pattern("?a"), (mutating_condition,)),),
        )
        findings, _ = audit_rule(bad, "corpus")
        assert "RU-IMPURE" in rule_ids(findings)
        # An unrecognized hand-rolled condition is also opaque to the
        # semantic audit, and says so rather than claiming a proof.
        assert "RU-OPAQUE-GUARD" in rule_ids(findings)

    def test_unbound_rhs_var_is_flagged(self):
        # rewrite() itself rejects this, so construct the Rewrite directly
        # — the auditor must not rely on the constructor's own check.
        bad = Rewrite(
            "bad-unbound",
            (Arm(parse_pattern("(+ ?a 0)"), parse_pattern("(+ ?a ?ghost)")),),
        )
        findings, record = audit_rule(bad, "corpus")
        assert rule_ids(findings) == {"RU-UNBOUND"}
        assert record["status"] == "ill-formed"

    def test_audit_rules_aggregates_per_rule(self):
        rules = [
            rewrite("bad-drop", "(+ ?a ?b)", "?a"),
            drule("good-sub-self", "(- ?a ?a)", "0"),
        ]
        findings, records = audit_rules(rules, "corpus")
        assert [r["rule"] for r in records] == ["bad-drop", "good-sub-self"]
        assert findings and all(f.anchor.startswith("corpus/") for f in findings)


class TestSearchTimeGuardMutants:
    """``trunc-elim`` is ``(trunc ?w ?x) -> ?x`` under the search-time guard
    ``fits("x", "?w")``; each mutant below must be reported."""

    def test_shipped_form_is_proved(self):
        rule = drule("trunc-elim", "(trunc ?w ?x)", "?x", guards=(fits("x", "?w"),))
        findings, record = audit_rule(rule, "corpus")
        assert findings == []
        assert record["status"] == "proved"

    def test_dropped_guard_is_unsound(self):
        rule = drule("trunc-elim", "(trunc ?w ?x)", "?x")
        findings, _ = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}

    def test_width_off_by_one_is_unsound(self):
        rule = drule("trunc-elim", "(trunc ?w ?x)", "?x", guards=(fits("x", "(+ ?w 1)"),))
        findings, _ = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}

    def test_hand_rolled_guard_is_opaque(self):
        rule = drule(
            "trunc-elim", "(trunc ?w ?x)", "?x", guards=(lambda egraph, env: True,)
        )
        findings, record = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-OPAQUE-GUARD"}
        assert record["status"] == "opaque-guard"

    def test_mutating_guard_is_impure(self):
        def mutating_guard(egraph, env):
            egraph.add_const(0)
            return True

        rule = drule("trunc-elim", "(trunc ?w ?x)", "?x", guards=(mutating_guard,))
        findings, _ = audit_rule(rule, "corpus")
        assert "RU-IMPURE" in rule_ids(findings)

    def test_const_leaf_ranges_over_nonpositive_shifts(self):
        # Without `0 < s`, lzc-shl is wrong for s <= 0: the auditor binds a
        # `(const ?s)` to every non-* class value, not only to widths.
        rule = drule(
            "lzc-shl",
            "(lzc ?w (<< ?a (const ?s)))",
            "(lzc (- ?w ?s) ?a)",
            guards=(attr_lt("?s", "?w"), fits("a", "(- ?w ?s)")),
        )
        findings, _ = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}


class TestRuleLanguageMutants:
    """One mutant per feature the Table I and Fig. 1 ports use; each must be
    reported unsound, and each shipped form proved."""

    def test_mux_pull_arm_with_swapped_branches_is_unsound(self):
        arms = list(mux_pull_rule().arms)
        shipped = arms[0]  # (+ (mux ?c ?t ?f) ?o1)
        c, on_true, on_false = shipped.rhs.children
        arms[0] = darm(shipped.lhs, PatternNode(ops.MUX, (), (c, on_false, on_true)))
        findings, record = audit_rule(Rewrite("mux-pull", tuple(arms)), "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}
        assert "(arm 0)" in findings[0].message
        assert record["status"] == "failed" and record["arms"] == 41

    def test_shift_one_past_log2_is_unsound(self):
        rule = drule(
            "mul-pow2-shl", "(* ?a (const ?k))", "(<< ?a (const (+ (log2 ?k) 1)))",
            guards=(pow2("?k"),),
        )
        findings, _ = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}

    def test_shipped_log2_shift_is_proved(self):
        rule = drule(
            "mul-pow2-shl", "(* ?a (const ?k))", "(<< ?a (const (log2 ?k)))",
            guards=(pow2("?k"),),
        )
        findings, record = audit_rule(rule, "corpus")
        assert findings == [] and record["status"] == "proved"

    def test_merge_dropping_the_inner_tail_is_unsound(self):
        rule = drule(
            "assume-merge-nested",
            "(assume (assume ?x ?inner...) ?outer...)",
            "(assume ?x ?outer...)",
        )
        findings, _ = audit_rule(rule, "corpus")
        assert "RU-UNSOUND" in rule_ids(findings)

    def test_true_elim_guarded_by_totality_alone_is_unsound(self):
        rule = drule("assume-true-elim", "(assume ?x ?cs...)", "?x", guards=(total("cs"),))
        findings, _ = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}

    def test_shipped_true_elim_quantifies_over_the_tail(self):
        rule = drule(
            "assume-true-elim", "(assume ?x ?cs...)", "?x", guards=(total("cs"), truthy("cs"))
        )
        findings, record = audit_rule(rule, "corpus")
        assert findings == [] and record["status"] == "proved"
        # x times every tuple of one or two constraint values.
        assert record["envs"] == 7 * (7 + 7 * 7)

    def test_lzc_narrow_from_the_range_maximum_is_unsound(self):
        rule = drule(
            "lzc-narrow",
            "(lzc ?w ?x)",
            "(lzc (+ ?k 1) (>> ?x (const (- (- ?w ?k) 1))))",
            guards=(
                bounded("x", lo=1),
                derive("k", "(- ?w (bitlen (hi ?x)))"),
                attr_lt("(+ ?k 1)", "?w"),
            ),
        )
        findings, _ = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}
        assert "ranges" in findings[0].detail["counterexample"]

    def test_width_reduce_from_the_range_maximum_is_proved(self):
        """``lzc-width-reduce`` reads ``m`` from the range maximum, at least
        one bit (``max``)."""
        findings, record = audit_rule(lzc_width_reduce_rule(), "corpus")
        assert findings == [] and record["status"] == "proved"

    def test_width_reduce_from_the_range_minimum_is_unsound(self):
        rule = drule(
            "lzc-width-reduce",
            "(lzc ?w ?x)",
            "(+ (const (- ?w ?m)) (lzc ?m ?x))",
            guards=(derive("m", "(max (bitlen (lo ?x)) 1)"), attr_lt("?m", "?w")),
        )
        findings, _ = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}

    def test_minmax_arm_keeping_the_larger_side_is_unsound(self):
        rule = Rewrite("minmax-resolve", (
            darm("(min ?a ?b)", "?a", guards=(range_le("a", "b"), total("b"))),
            darm("(min ?a ?b)", "?a", guards=(range_le("b", "a"), total("b"))),
        ))
        findings, record = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}
        assert "(arm 1)" in findings[0].message
        assert record["status"] == "failed"


class TestStructuralMutants:
    """One mutant per feature the last six ports use (a structural guard,
    a tail lookup, an operator set, as-patterns, an attribute upper bound);
    each must be reported unsound, and each shipped form proved."""

    @pytest.mark.parametrize("make", [
        mux_branch_assume_rule, assume_distribute_rule, assume_mux_prune_rule,
        lzc_norm_invariant_rule, split_sub_shift_rule,
    ])
    def test_shipped_form_is_proved(self, make):
        findings, record = audit_rule(make(), "corpus")
        assert findings == [] and record["status"] == "proved", record

    def test_swapped_branch_constraints_are_unsound(self):
        rule = drule(
            "mux-branch-assume",
            "(mux ?c ?t ?f)",
            "(mux ?c (assume ?t (lnot ?c)) (assume ?f ?c))",
            guards=(unassumed("t", "c"),),
        )
        findings, _ = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}

    def test_prune_keeping_the_wrong_branch_is_unsound(self):
        lhs = "(assume (mux ?c ?t ?f) ?cs...)"
        on_true = among("?c", "cs")
        rule = Rewrite("assume-mux-prune", (
            darm(lhs, "(assume ?t ?cs...)", unguarded=("c", "f"), guards=(on_true,)),
            darm(
                lhs, "(assume ?t ?cs...)", unguarded=("c", "f"),
                guards=(unless(on_true), among("(lnot ?c)", "cs")),
            ),
        ))
        findings, record = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}
        assert "(arm 1)" in findings[0].message and record["status"] == "failed"

    def test_prune_without_its_lookup_drops_the_condition(self):
        rule = drule(
            "assume-mux-prune", "(assume (mux ?c ?t ?f) ?cs...)", "(assume ?t ?cs...)",
            unguarded=("c", "f"),
        )
        findings, _ = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-DROPPED", "RU-UNSOUND"}

    def test_distribute_dropping_the_tail_is_unsound_per_operator(self):
        rule = drule("assume-distribute", "(assume (strict ?xs...) ?cs...)", "(strict ?xs...)")
        findings, record = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}
        assert "(ADD)" in findings[0].message
        assert record["arms"] == len(ops.STRICT)

    def test_case_split_keeping_an_operand_is_unsound(self):
        rule = drule("case-split-shift-gt1", "?e@(- ?a (>> ?b ?c))", "(mux (> ?c 1) ?e ?a)")
        findings, _ = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}

    def test_norm_invariant_bound_one_past_the_width_is_unsound(self):
        rule = drule(
            "lzc-norm-invariant",
            "(<< ?s (lzc ?w ?s@(<< ?a ?c)))",
            "(<< ?a (lzc ?w ?a))",
            guards=(bounded("s", "a", hi="(exp2 ?w)"), nonneg("c"), total("c")),
        )
        findings, _ = audit_rule(rule, "corpus")
        assert rule_ids(findings) == {"RU-UNSOUND"}


# ------------------------------------------------------- auditor internals
class TestAuditorInternals:
    def test_guard_spec_recovers_factory_arguments(self):
        kind, names = guard_spec(total("a", "b"))
        assert (kind, names) == ("total", ("a", "b"))

    def test_guard_spec_recovers_attribute_arguments(self):
        kind, (name, width) = guard_spec(fits("a", "(- ?w ?s)"))
        assert (kind, name, repr(width)) == ("fits", "a", "(- ?w ?s)")
        kind, (low, high) = guard_spec(attr_lt("0", "?s"))
        assert (kind, low, repr(high)) == ("attr_lt", 0, "?s")

    def test_eval_pattern_computes_attributes(self):
        rhs = parse_pattern("(trunc (min ?v ?w) ?a)")
        assert eval_pattern(rhs, {"v": 3, "w": 2, "a": 7}) == 3
        lhs = parse_pattern("(<< ?a (const ?s))")
        assert eval_pattern(lhs, {"a": 3, "s": 2}) == 12

    def test_guard_spec_rejects_hand_rolled_conditions(self):
        assert guard_spec(lambda egraph, env: True) is None
        assert guard_spec(unless(lambda egraph, env: True)) is None

    def test_guard_spec_recovers_binding_and_negated_guards(self):
        kind, (name, expr) = guard_spec(derive("k", "(- ?w (bitlen (lo ?x)))"))
        assert (kind, name, repr(expr)) == ("derive", "k", "(- ?w (bitlen (lo ?x)))")
        assert guard_spec(unless(total("a"))) == ("unless", ("total", ("a",)))
        assert guard_spec(pow2("?v"))[0] == "pow2"

    def test_guard_spec_recovers_structural_guards(self):
        kind, (term, tail) = guard_spec(among("(lnot ?c)", "cs"))
        assert (kind, repr(term), tail) == ("among", "(lnot ?c)", "cs")
        assert guard_spec(unassumed("t", "c")) == ("unassumed", ("t", "c"))
        kind, (names, lo, hi) = guard_spec(bounded("s", hi="(- (exp2 ?w) 1)"))
        assert (kind, names, lo, repr(hi)) == ("bounded", ("s",), None, "(- (exp2 ?w) 1)")

    def test_eval_pattern_splices_tails(self):
        rhs = parse_pattern("(assume ?x ?outer... ?inner...)")
        assert eval_pattern(rhs, {"x": 5, "outer": (1,), "inner": (2, 3)}) == 5
        assert eval_pattern(rhs, {"x": 5, "outer": (1,), "inner": (2, 0)}) is BOT

    def test_mux_branches_are_non_strict(self):
        # b only ever appears as an unselected-able mux branch; it needs no
        # totality guard (this is drule's `unguarded=` contract).
        lhs = parse_pattern("(mux 1 ?a ?b)")
        assert strictly_evaluated_vars(lhs) == set()

    def test_eval_pattern_propagates_bot(self):
        lhs = parse_pattern("(+ ?a ?b)")
        assert eval_pattern(lhs, {"a": BOT, "b": 1}) is BOT
        assert eval_pattern(lhs, {"a": 2, "b": 1}) == 3

    def test_eval_pattern_mux_is_non_strict(self):
        mux = parse_pattern("(mux ?c ?a ?b)")
        assert eval_pattern(mux, {"c": 1, "a": 7, "b": BOT}) == 7
        assert eval_pattern(mux, {"c": BOT, "a": 7, "b": 8}) is BOT


# ------------------------------------------------------------ shipped rules
class TestShippedRulesets:
    @pytest.fixture(scope="class")
    def shipped(self):
        return audit_rulesets()

    def test_every_shipped_rule_passes(self, shipped):
        findings, _ = shipped
        assert findings == [], [f.fid for f in findings]

    def test_every_declarative_rule_is_proved_or_trialed(self, shipped):
        _, records = shipped
        assert records
        for record in records:
            assert record["status"] in ("proved", "trials-passed"), record
            # The audited budget is recorded either way.
            assert record["envs"] > 0 and record["checked"] > 0, record

    def test_range_guarded_rules_are_proved(self, shipped):
        _, records = shipped
        by_name = {r["rule"]: r for r in records}
        for name in ("abs-identity", "abs-negate", "trunc-elim", "trunc-trunc", "lzc-shl"):
            assert by_name[name]["status"] == "proved", by_name[name]

    def test_ported_rules_are_proved_arm_by_arm(self, shipped):
        _, records = shipped
        by_name = {r["rule"]: r for r in records}
        arms = {
            "mux-pull": 41, "mux-cond-const": 2, "mul-pow2-shl": 2, "minmax-resolve": 4,
            "assume-mux-prune": 2, "assume-distribute": len(ops.STRICT),
        }
        for name in (
            *arms, "assume-merge-nested", "assume-true-elim", "lzc-narrow", "mux-branch-assume",
            "lzc-width-reduce", "lzc-norm-invariant", "case-split-shift-gt1",
        ):
            record = by_name[name]
            assert record["status"] == "proved" and record["mode"] == "exhaustive", record
            assert record.get("arms", 1) == arms.get(name, 1)

    def test_audit_covers_every_registered_ruleset(self, shipped):
        _, records = shipped
        assert {r["ruleset"] for r in records} == set(RULESETS)
