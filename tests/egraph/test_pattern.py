"""Pattern parsing and e-matching."""

import pytest

from repro.egraph import EGraph
from repro.egraph.pattern import (
    AttrExpr,
    AttrVar,
    PatternNode,
    PatternVar,
    parse_pattern,
    pattern_vars,
)
from repro.egraph.query import compile_arms
from repro.ir import ops, var

from oracles.ematch import ematch, instantiate


class TestParser:
    def test_simple(self):
        p = parse_pattern("(+ ?a ?b)")
        assert p.op is ops.ADD
        assert p.children == (PatternVar("a"), PatternVar("b"))

    def test_literal_becomes_const(self):
        p = parse_pattern("(* ?a 2)")
        assert p.children[1] == PatternNode(ops.CONST, (2,), ())

    def test_attr_binding(self):
        p = parse_pattern("(lzc ?w ?a)")
        assert p.attrs == (AttrVar("w"),)

    def test_concrete_attr(self):
        p = parse_pattern("(trunc 8 ?a)")
        assert p.attrs == (8,)

    def test_nested(self):
        p = parse_pattern("(>> (<< ?a ?b) ?b)")
        assert p.children[0].op is ops.SHL

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            parse_pattern("(+ ?a)")

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            parse_pattern("(frob ?a)")

    def test_pattern_vars(self):
        p = parse_pattern("(mux ?c (lzc ?w ?a) ?a)")
        assert pattern_vars(p) == {"c", "w", "a"}

    def test_computed_attr_and_const_leaf(self):
        rhs = parse_pattern("(trunc (min ?v (- ?w 1)) ?a)")
        assert rhs.attrs == (AttrExpr("min", (AttrVar("v"), AttrExpr("-", (AttrVar("w"), 1)))),)
        assert pattern_vars(rhs) == {"v", "w", "a"}
        lhs = parse_pattern("(<< ?a (const ?s))")
        assert lhs.children[1] == PatternNode(ops.CONST, (AttrVar("s"),), ())
        assert parse_pattern("(- ?w ?s)", attr=True) == AttrExpr("-", (AttrVar("w"), AttrVar("s")))

    def test_unknown_attr_function(self):
        with pytest.raises(ValueError):
            parse_pattern("(trunc (mul ?v ?w) ?a)")

    def test_computed_attr_is_rhs_only(self):
        with pytest.raises(ValueError):
            compile_arms(((parse_pattern("(trunc (min ?v ?w) ?a)"), False, None),))


class TestMatching:
    def test_basic_match(self):
        g = EGraph()
        x = var("x", 4)
        root = g.add_expr(x + 1)
        found = ematch(g, parse_pattern("(+ ?a ?b)"))
        assert len(found) == 1
        cid, env = found[0]
        assert cid == g.find(root)
        assert g.class_const(env["b"]) == 1

    def test_const_literal_filters(self):
        g = EGraph()
        x = var("x", 4)
        g.add_expr(x * 2)
        g.add_expr(x * 3)
        found = ematch(g, parse_pattern("(* ?a 2)"))
        assert len(found) == 1

    def test_repeated_var_requires_same_class(self):
        g = EGraph()
        x, y = var("x", 4), var("y", 4)
        g.add_expr(x - x)
        g.add_expr(x - y)
        found = ematch(g, parse_pattern("(- ?a ?a)"))
        assert len(found) == 1

    def test_repeated_var_matches_after_union(self):
        g = EGraph()
        x, y = var("x", 4), var("y", 4)
        root = g.add_expr(x - y)
        g.union(g.add_expr(x), g.add_expr(y))
        g.rebuild()
        found = ematch(g, parse_pattern("(- ?a ?a)"))
        assert [c for c, _ in found] == [g.find(root)]

    def test_match_through_class_members(self):
        """Patterns see every e-node of a class, not one representative."""
        g = EGraph()
        x = var("x", 4)
        root = g.add_expr(x + 1)
        g.union(root, g.add_expr(x - 3))  # pretend they are equal
        g.rebuild()
        adds = ematch(g, parse_pattern("(+ ?a ?b)"))
        subs = ematch(g, parse_pattern("(- ?a ?b)"))
        assert {c for c, _ in adds} == {c for c, _ in subs} == {g.find(root)}

    def test_attr_var_binds(self):
        g = EGraph()
        x = var("x", 4)
        from repro.ir.expr import lzc

        g.add_expr(lzc(x, 4))
        found = ematch(g, parse_pattern("(lzc ?w ?a)"))
        assert found[0][1]["w"] == 4

    def test_match_limit(self):
        g = EGraph()
        for i in range(20):
            g.add_expr(var(f"x{i}", 4) + i)
        found = ematch(g, parse_pattern("(+ ?a ?b)"), limit=5)
        assert len(found) == 5


class TestInstantiate:
    def test_builds_rhs(self):
        g = EGraph()
        x = var("x", 4)
        g.add_expr(x * 2)
        found = ematch(g, parse_pattern("(* ?a 2)"))
        _, env = found[0]
        new = instantiate(g, parse_pattern("(<< ?a 1)"), env)
        assert g.any_expr(new) == (x << 1)

    def test_attr_var_instantiation(self):
        from repro.ir.expr import lzc

        g = EGraph()
        x = var("x", 4)
        g.add_expr(lzc(x, 4))
        _, env = ematch(g, parse_pattern("(lzc ?w ?a)"))[0]
        new = instantiate(g, parse_pattern("(trunc ?w ?a)"), env)
        assert g.any_expr(new).attrs == (4,)
