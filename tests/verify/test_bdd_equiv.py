"""BDD engine and the equivalence-checking strategy."""

import pytest

from repro.intervals import IntervalSet
from repro.ir import abs_, assume, eq, gt, lzc, mux, ne, var
from repro.ir.evaluate import compile_evaluator
from repro.ir.rename import rename_vars
from repro.synth.lower import lower_to_netlist
from repro.verify import BDD, BddLimitError, EquivalenceResult, check_equivalent
from repro.verify.bdd import BDD as BDDClass
from repro.verify.equiv import _first_reach, _fixed_bits, _variable_order


class TestBDD:
    def test_terminals_and_vars(self):
        bdd = BDD()
        x = bdd.var(0)
        assert bdd.apply_and(x, bdd.TRUE) == x
        assert bdd.apply_and(x, bdd.FALSE) == bdd.FALSE
        assert bdd.apply_or(x, bdd.TRUE) == bdd.TRUE
        assert bdd.apply_xor(x, x) == bdd.FALSE
        assert bdd.apply_not(bdd.apply_not(x)) == x

    def test_hashconsing_canonical(self):
        bdd = BDD()
        x, y = bdd.var(0), bdd.var(1)
        f1 = bdd.apply_or(bdd.apply_and(x, y), bdd.apply_and(x, bdd.apply_not(y)))
        assert f1 == x  # (x&y)|(x&~y) reduces to x

    def test_demorgan(self):
        bdd = BDD()
        x, y = bdd.var(0), bdd.var(1)
        lhs = bdd.apply_not(bdd.apply_and(x, y))
        rhs = bdd.apply_or(bdd.apply_not(x), bdd.apply_not(y))
        assert lhs == rhs

    def test_any_sat(self):
        bdd = BDD()
        x, y = bdd.var(0), bdd.var(1)
        f = bdd.apply_and(x, bdd.apply_not(y))
        model = bdd.any_sat(f)
        assert model[0] == 1 and model[1] == 0
        assert bdd.any_sat(bdd.FALSE) is None

    def test_count_sat(self):
        bdd = BDD()
        x, y, z = (bdd.var(i) for i in range(3))
        f = bdd.apply_or(x, bdd.apply_and(y, z))
        # x | (y&z): 4 + 1 = 5 of 8 assignments
        assert bdd.count_sat(f, 3) == 5

    def test_node_limit(self):
        bdd = BDDClass(node_limit=8)
        with pytest.raises(BddLimitError):
            f = bdd.TRUE
            for i in range(10):
                f = bdd.apply_xor(f, bdd.var(i))


class TestCheckEquivalent:
    def test_exhaustive_positive(self):
        x = var("x", 6)
        a = (x + x) >> 1
        verdict = check_equivalent(a, x)
        assert verdict.equivalent is True
        assert verdict.method == "exhaustive"

    def test_exhaustive_counterexample(self):
        x = var("x", 6)
        verdict = check_equivalent(x + 1, x)
        assert verdict.equivalent is False
        assert verdict.counterexample is not None

    def test_bdd_proof_on_wide_inputs(self):
        # 2 x 16-bit inputs: too big for exhaustive, fine for BDDs.
        a, b = var("a", 16), var("b", 16)
        lhs = mux(gt(a, b), a, b)
        rhs = mux(gt(b, a), b, a)
        verdict = check_equivalent(lhs, rhs, exhaustive_budget=1 << 10)
        assert verdict.equivalent is True
        assert verdict.method == "bdd"

    def test_bdd_counterexample(self):
        a, b = var("a", 16), var("b", 16)
        verdict = check_equivalent(a + b, a | b, exhaustive_budget=1 << 10)
        assert verdict.equivalent is False
        env = verdict.counterexample
        assert (env["a"] + env["b"]) != (env["a"] | env["b"])

    def test_domain_constrained_equivalence(self):
        """abs(x-128) == x-128 only under the constraint x >= 128."""
        x = var("x", 8)
        lhs, rhs = abs_(x - 128), x - 128
        unconstrained = check_equivalent(lhs, rhs)
        assert unconstrained.equivalent is False
        constrained = check_equivalent(
            lhs, rhs, {"x": IntervalSet.of(128, 255)}
        )
        assert constrained.equivalent is True

    def test_assume_semantics_respected(self):
        """Guarded assumes compare equal to the plain design."""
        x = var("x", 8)
        plain = mux(gt(x, 10), x - 10, 0)
        assumed = mux(gt(x, 10), assume(x, gt(x, 10)) - 10, 0)
        verdict = check_equivalent(plain, assumed)
        assert verdict.equivalent is True

    def test_paper_figure1_equivalence(self):
        x, y = var("x", 8), var("y", 8)
        wide = lzc(x + y, 9)
        narrow = lzc((x + y) >> 7, 2)
        ranges = {"x": IntervalSet.of(128, 255)}
        assert check_equivalent(wide, narrow, ranges).equivalent is True
        # Without the input constraint they differ.
        assert check_equivalent(wide, narrow).equivalent is False


class TestBddSetUp:
    """The BDD's care set and variable order.  Every pair here has more
    than 2**16 domain points, so ``check_equivalent`` takes the BDD path."""

    def test_range_fixed_msb_is_cofactored(self):
        # x in [256, 511] fixes x[8] = 1; the pair differs only where it is 0.
        x, y = var("x", 9), var("y", 9)
        lhs = x + y
        rhs = mux(gt(x, 255), x + y, y)
        ranges = {"x": IntervalSet.of(256, 511)}
        # With x[8] a constant the proof takes 150 nodes; with x[8] as a
        # variable it would take 250 and blow this cap.
        proved = check_equivalent(lhs, rhs, ranges, bdd_node_limit=200)
        assert (proved.equivalent, proved.method) == (True, "bdd")
        refuted = check_equivalent(lhs, rhs)
        assert (refuted.equivalent, refuted.method) == (False, "bdd")
        env = refuted.counterexample
        assert env["x"] < 256
        va, vb = compile_evaluator(lhs, rhs)(env)
        assert va != vb

    def test_counterexample_carries_the_fixed_bits(self):
        # x in [768, 1023] fixes x[9] = x[8] = 1; x + y and x ^ y differ
        # wherever x & y is not zero.
        x, y = var("x", 10), var("y", 9)
        domain = IntervalSet.of(768, 1023)
        verdict = check_equivalent(x + y, x ^ y, {"x": domain})
        assert (verdict.equivalent, verdict.method) == (False, "bdd")
        env = verdict.counterexample
        assert domain.contains(env["x"]) and env["x"] >> 8 == 0b11
        va, vb = compile_evaluator(x + y, x ^ y)(env)
        assert va != vb

    def test_multi_part_domain_fixes_the_shared_prefix(self):
        # Parts [512, 600] and [700, 767]: the lowest and highest values
        # share bits 9..8 = 0b10, though neither part spans the whole range.
        x, y = var("x", 10), var("y", 16)
        domain = IntervalSet.of(512, 600).union(IntervalSet.of(700, 767))
        netlist = lower_to_netlist(x + y).netlist
        nets = netlist.inputs["x"]
        assert _fixed_bits(netlist, {"x": domain}) == {nets[9]: 1, nets[8]: 0}
        lhs = (x - 512) + y
        assert check_equivalent(lhs, (x & 255) + y, {"x": domain}).equivalent is True
        # Differs only at x == 767 = 0b1011111111: bit 9 comes back set.
        rhs = mux(eq(x, 767), y, (x & 255) + y)
        verdict = check_equivalent(lhs, rhs, {"x": domain})
        assert (verdict.equivalent, verdict.method) == (False, "bdd")
        assert verdict.counterexample["x"] == 767

    def test_order_preserving_renaming_keeps_the_bdd(self):
        x, s, y = var("x", 13), var("s", 3), var("y", 13)
        lhs = ((x << s) >> s) + y
        rhs = y + x
        ranges = {"x": IntervalSet.of(4096, 6000)}
        before = check_equivalent(lhs, rhs, ranges)
        # s < x < y becomes a < b < c: the sorted order is preserved.
        mapping = {"s": "a", "x": "b", "y": "c"}
        renamed = rename_vars([lhs, rhs], mapping)
        after = check_equivalent(*renamed, {"b": ranges["x"]})
        assert before.method == after.method == "bdd"
        assert before.equivalent is after.equivalent is True
        assert before.bdd_nodes == after.bdd_nodes

    def test_variable_shift_orders_bits_by_first_reach(self):
        x, s = var("x", 13), var("s", 4)
        lhs, rhs = (x << s) >> s, x
        assert check_equivalent(lhs, rhs).method == "bdd"
        netlist = lower_to_netlist(ne(lhs, rhs)).netlist
        free = {net for nets in netlist.inputs.values() for net in nets}
        order = _variable_order(netlist, free)
        reached = _first_reach(netlist, netlist.outputs["out"].bits)
        assert order == reached and sorted(order) == sorted(free)
        assert order != _msb_interleave(netlist, sorted(netlist.inputs))

    def test_adder_interleaves_words_msb_first(self):
        # The walk reaches ``b`` first, so ``b`` leads although ``a`` sorts first.
        x, y = var("b", 12), var("a", 12)
        lhs, rhs = x + y, (x | y) + (x & y)
        verdict = check_equivalent(lhs, rhs)
        assert (verdict.equivalent, verdict.method) == (True, "bdd")
        netlist = lower_to_netlist(ne(lhs, rhs)).netlist
        free = {net for nets in netlist.inputs.values() for net in nets}
        order = _variable_order(netlist, free)
        assert order == _msb_interleave(netlist, ["b", "a"])


def _msb_interleave(netlist, words):
    width = max(len(netlist.inputs[name]) for name in words)
    return [
        netlist.inputs[name][bit]
        for bit in range(width - 1, -1, -1)
        for name in words
        if bit < len(netlist.inputs[name])
    ]


class TestVerdictRepr:
    def test_bdd_verdict_counts_nodes_not_trials(self):
        proved = EquivalenceResult(True, "bdd", trials=102952, bdd_nodes=102952)
        assert repr(proved) == "EQUIVALENT (bdd, 102952 BDD nodes)"

    def test_blown_bdd_then_random_names_both(self):
        fallback = EquivalenceResult(None, "random", trials=5000, bdd_nodes=400000)
        assert repr(fallback) == "NO-DIFF-FOUND (random, 5000 trials, 400000 BDD nodes)"

    def test_exhaustive_verdict_counts_trials(self):
        x = var("x", 6)
        assert repr(check_equivalent(x + 0, x)) == "EQUIVALENT (exhaustive, 64 trials)"
