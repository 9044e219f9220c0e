"""Expression tree construction, sugar, traversal."""

import os
import sys

import pytest

from repro.ir import (
    ADD, SUB, VAR,
    assume, const, gt, lzc, mux, trunc, var,
)
from repro.ir.expr import Expr, pretty, subterms


class TestConstruction:
    def test_var(self):
        x = var("x", 8)
        assert x.is_var and x.var_name == "x" and x.var_width == 8

    def test_var_width_positive(self):
        with pytest.raises(ValueError):
            var("x", 0)

    def test_const(self):
        assert const(5).value == 5
        assert const(-3).value == -3

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            Expr(ADD, (), (const(1),))

    def test_attrs_enforced(self):
        with pytest.raises(ValueError):
            Expr(VAR, ("x",))  # missing width

    def test_assume_needs_constraint(self):
        with pytest.raises(ValueError):
            assume(var("x", 4))


class TestSugar:
    def test_operators_build_nodes(self):
        x, y = var("x", 4), var("y", 4)
        assert (x + y).op is ADD
        assert (x - y).op is SUB
        assert (x + 1).children[1].value == 1
        assert (1 + x).children[0].value == 1
        assert (-x).op.name == "NEG"
        assert (x << 2).op.name == "SHL"
        assert (x & y).op.name == "AND"

    def test_structural_equality_and_hash(self):
        x = var("x", 4)
        assert x + 1 == x + 1
        assert hash(x + 1) == hash(x + 1)
        assert x + 1 != x + 2

    def test_mux_lifts_ints(self):
        m = mux(1, 2, 3)
        assert all(c.is_const for c in m.children)


class TestHashing:
    def test_hash_is_structural_and_cached(self):
        a = mux(gt(var("x", 8), 3), var("x", 8) + 1, const(0))
        b = mux(gt(var("x", 8), 3), var("x", 8) + 1, const(0))
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(a)  # second call served from the cache

    def test_pickle_resets_cached_hash(self):
        """The cached hash is process-local (str hashing is randomized):
        it is never pickled, and unpickling recomputes it.  The tree below
        is pickled by a process with another hash seed."""
        import pickle
        import subprocess
        import sys

        script = (
            "import pickle, sys\n"
            "from repro.ir import const, gt, mux, var\n"
            "tree = mux(gt(var('x', 8), 3), var('x', 8) + 1, const(0))\n"
            "sys.stdout.write(pickle.dumps(tree).hex())\n"
        )
        payload = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONHASHSEED": "123"},
        ).stdout
        clone = pickle.loads(bytes.fromhex(payload))
        original = mux(gt(var("x", 8), 3), var("x", 8) + 1, const(0))
        assert len(original.__getstate__()) == 3  # op, attrs, children only
        assert clone == original and hash(clone) == hash(original)
        assert {original: 1}[clone] == 1  # dict lookup across the pair works

    def test_deep_chain_hashes_without_recursion(self):
        """The hash is computed at construction from the children's cached
        hashes, so a chain far deeper than the recursion limit hashes and
        keys dicts."""
        node = var("x", 8)
        for _ in range(5 * sys.getrecursionlimit()):
            node = node + 1
        assert {node: 1}[node] == 1


class TestTraversal:
    def test_walk_covers_all(self):
        x, y = var("x", 4), var("y", 4)
        e = mux(gt(x, y), x - y, y - x)
        names = {n.var_name for n in e.walk() if n.is_var}
        assert names == {"x", "y"}

    def test_walk_visits_each_subterm_once_in_preorder(self):
        x, y = var("x", 4), var("y", 4)
        shared = mux(gt(x, y), x - y, y - x)
        e = mux(gt(shared, 1), shared + x, shared)

        def tree_walk(node):  # every path, children right to left
            yield node
            for child in reversed(node.children):
                yield from tree_walk(child)

        assert list(e.walk()) == list(dict.fromkeys(tree_walk(e)))

    def test_count_nodes_is_dag_size(self):
        x = var("x", 4)
        shared = x + 1
        e = shared * shared
        assert e.count_nodes() == 4  # x, 1, x+1, mul

    def test_depth(self):
        x = var("x", 4)
        assert x.depth() == 1
        assert (x + 1).depth() == 2
        assert ((x + 1) + 1).depth() == 3

    def test_subterms_multi_root(self):
        x = var("x", 4)
        assert len(subterms([x + 1, x + 2])) == 5


class TestPretty:
    def test_infix(self):
        x = var("x", 4)
        assert pretty(x + 1) == "(x + 1)"

    def test_mux(self):
        assert "?" in pretty(mux(var("c", 1), 1, 0))

    def test_assume(self):
        text = pretty(assume(var("x", 4), gt(var("x", 4), 0)))
        assert text.startswith("assume(")

    def test_attrs_shown(self):
        assert pretty(lzc(var("x", 4), 4)) == "lzc<4>(x)"
        assert pretty(trunc(var("x", 4), 2)) == "trunc<2>(x)"
