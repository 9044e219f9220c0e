"""Mutation self-test for the rule-soundness auditor.

Two halves, per the subsystem's acceptance bar:

* a corpus of deliberately broken rules — dropped variable without a
  guard, impure condition, semantically unsound identity, RHS using an
  unbound variable, and mutants of the range-guarded ``trunc-elim`` with
  its search-time guard dropped, off by one, opaque or impure — each of
  which the auditor must flag;
* the shipped rulesets, every one of which the auditor must pass, with
  every declarative rule carrying an exhaustive proof (or a recorded
  trial budget) and every dynamic rule a contract.
"""

from __future__ import annotations

import pytest

from repro.egraph.pattern import parse_pattern
from repro.egraph.rewrite import Rewrite, rewrite
from repro.lint.rules import (
    DYNAMIC_CONTRACTS,
    audit_rule,
    audit_rules,
    audit_rulesets,
    eval_pattern,
    guard_spec,
    strictly_evaluated_vars,
)
from repro.rewrites.rulesets import RULESETS, ruleset
from repro.rewrites.soundness import attr_lt, drule, fits, total
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
            name="bad-impure",
            searcher=parse_pattern("(+ ?a 0)"),
            applier=parse_pattern("?a"),
            conditions=(mutating_condition,),
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
            name="bad-unbound",
            searcher=parse_pattern("(+ ?a 0)"),
            applier=parse_pattern("(+ ?a ?ghost)"),
        )
        findings, record = audit_rule(bad, "corpus")
        assert rule_ids(findings) == {"RU-UNBOUND"}
        assert record["status"] == "ill-formed"

    def test_dynamic_rule_without_contract_is_flagged(self):
        phantom = Rewrite(
            name="corpus-phantom-dynamic",
            searcher=lambda egraph, index: [],
            applier=lambda egraph, class_id, env: [],
        )
        findings, _ = audit_rule(phantom, "corpus")
        assert rule_ids(findings) == {"RU-NO-CONTRACT"}

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
        declarative = [r for r in records if r["mode"] != "contract"]
        assert declarative
        for record in declarative:
            assert record["status"] in ("proved", "trials-passed"), record
            # The audited budget is recorded either way.
            assert record["envs"] > 0 and record["checked"] > 0, record

    def test_range_guarded_rules_are_proved(self, shipped):
        _, records = shipped
        by_name = {r["rule"]: r for r in records}
        for name in ("abs-identity", "abs-negate", "trunc-elim", "trunc-trunc", "lzc-shl"):
            assert by_name[name]["status"] == "proved", by_name[name]
            assert name not in DYNAMIC_CONTRACTS

    def test_every_dynamic_rule_has_a_contract(self, shipped):
        _, records = shipped
        dynamic = [r for r in records if r["mode"] == "contract"]
        assert dynamic
        for record in dynamic:
            assert record["status"] in ("declared", "spot-checked"), record
            assert record["sound_by"]

    def test_contracts_name_only_real_rules(self):
        shipped_names = {
            rule.name for name in RULESETS for rule in ruleset(name)
        }
        stale = set(DYNAMIC_CONTRACTS) - shipped_names
        assert not stale, f"contracts for rules that no longer exist: {stale}"

    def test_audit_covers_every_registered_ruleset(self, shipped):
        _, records = shipped
        assert {r["ruleset"] for r in records} == set(RULESETS)
