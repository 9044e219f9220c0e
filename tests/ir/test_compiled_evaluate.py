"""The compiled simulator against the reference interpreter, over Z ∪ {*}.

``compile_evaluator(a, b)(env)`` must agree with ``(evaluate(a, env),
evaluate(b, env))`` exactly: the same integers, ``*`` exactly where the
interpreter gives ``*``, and the same ``ValueError`` for an out-of-range
input.  Random typed IR covers every operator, including the corners the
compiled guards special-case: ``*`` flowing through strict operators, a
``*`` in a mux's untaken branch, and negative operands into the bitwise,
shift, slice, concat, not and lzc domain checks.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DatapathOptimizer, OptimizerConfig
from repro.designs import DESIGNS
from repro.ir import (
    BOT, Expr, assume, bitnot, concat, const, evaluate, gt, lzc, mux, ops,
    slice_, trunc, var,
)
from repro.ir.evaluate import compile_evaluator, input_variables

WIDTHS = {"x": 3, "y": 4, "z": 2}
X, Y, Z = (var(name, width) for name, width in WIDTHS.items())

#: Operators by the shape of node they build.  Together with the leaves
#: (VAR, CONST) and the specially built MUX, ASSUME, SLICE and CONCAT they
#: are every operator of the language (pinned below).
BINARY = (
    ops.ADD, ops.SUB, ops.MUL, ops.AND, ops.OR, ops.XOR,
    ops.LT, ops.LE, ops.GT, ops.GE, ops.EQ, ops.NE, ops.MIN, ops.MAX,
)
SHIFTS = (ops.SHL, ops.SHR)
UNARY = (ops.NEG, ops.LNOT, ops.ABS)
WIDTH_UNARY = (ops.NOT, ops.LZC, ops.TRUNC)


def test_generator_covers_every_operator():
    built = {
        ops.VAR, ops.CONST, ops.MUX, ops.ASSUME, ops.SLICE, ops.CONCAT,
        *BINARY, *SHIFTS, *UNARY, *WIDTH_UNARY,
    }
    assert built == set(ops.ALL_OPS)


leaves = st.one_of(st.sampled_from([X, Y, Z]), st.integers(-6, 12).map(const))
#: Shift amounts stay leaf-sized (possibly negative or *) so nested shifts
#: cannot build astronomically large integers.
amounts = st.one_of(
    leaves,
    st.builds(lambda a, b: a - b, leaves, leaves),
    st.builds(assume, leaves, leaves),
)


def _grow(kids):
    return st.one_of(
        st.builds(
            lambda op, a, b: Expr(op, (), (a, b)), st.sampled_from(BINARY), kids, kids
        ),
        st.builds(
            lambda op, a, b: Expr(op, (), (a, b)), st.sampled_from(SHIFTS), kids, amounts
        ),
        st.builds(lambda op, a: Expr(op, (), (a,)), st.sampled_from(UNARY), kids),
        st.builds(
            lambda op, w, a: Expr(op, (w,), (a,)),
            st.sampled_from(WIDTH_UNARY), st.integers(1, 5), kids,
        ),
        st.builds(
            lambda lo, n, a: slice_(a, lo + n, lo), st.integers(0, 4), st.integers(0, 3), kids
        ),
        st.builds(lambda w, a, b: concat(a, b, w), st.integers(1, 4), kids, kids),
        st.builds(mux, kids, kids, kids),
        st.builds(
            lambda v, cs: assume(v, *cs), kids, st.lists(kids, min_size=1, max_size=3)
        ),
    )


exprs = st.recursive(leaves, _grow, max_leaves=16)
in_range = st.fixed_dictionaries(
    {name: st.integers(0, (1 << w) - 1) for name, w in WIDTHS.items()}
)
any_values = st.fixed_dictionaries(
    {name: st.integers(-2, (1 << w) + 1) for name, w in WIDTHS.items()}
)
env_lists = st.lists(st.one_of(in_range, any_values), min_size=1, max_size=6)


def _tag(value):
    """``*`` by identity, integers by type and value."""
    return "*" if value is BOT else (type(value), value)


def reference(roots, env):
    try:
        return tuple(_tag(evaluate(root, env)) for root in roots)
    except ValueError as exc:
        return ("ValueError", str(exc))


def compiled(simulate, env):
    try:
        return tuple(_tag(value) for value in simulate(env))
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_agree(roots, envs):
    simulate = compile_evaluator(*roots)
    for env in envs:
        assert compiled(simulate, env) == reference(roots, env), (
            env, simulate.__source__,
        )


@settings(max_examples=300, deadline=None)
@given(a=exprs, b=exprs, envs=env_lists)
def test_compiled_matches_reference_on_random_ir(a, b, envs):
    assert_agree((a, b), envs)


def _all_envs():
    return [
        {"x": x, "y": y, "z": z}
        for x in range(1 << WIDTHS["x"])
        for y in range(1 << WIDTHS["y"])
        for z in range(1 << WIDTHS["z"])
    ]


class TestGuards:
    def test_mux_shields_bot_in_untaken_branch(self):
        guarded = mux(gt(X, 2), assume(X, gt(X, 2)), const(0))
        assert_agree((guarded,), _all_envs())
        simulate = compile_evaluator(guarded)
        assert simulate({"x": 1, "y": 0, "z": 0}) == (0,)
        assert simulate({"x": 5, "y": 0, "z": 0}) == (5,)

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: n & Y, lambda n: Y | n, lambda n: n ^ n, lambda n: Y << n,
            lambda n: Y >> n, lambda n: slice_(n, 2, 1), lambda n: concat(n, Z, 2),
            lambda n: concat(Y, n, 2), lambda n: bitnot(n, 3), lambda n: lzc(n, 3),
            lambda n: trunc(n, 2),
        ],
    )
    def test_negative_operands(self, build):
        """``X - 4`` is negative for x < 4: domain checks must give ``*``."""
        expr = build(X - 4)
        assert_agree((expr,), _all_envs())

    def test_out_of_range_input_raises_the_reference_error(self):
        roots = (X + Y, Z)
        for env in ({"x": 9, "y": 20, "z": 0}, {"x": -1, "y": 3, "z": 7}):
            with pytest.raises(ValueError) as expected:
                for root in roots:
                    evaluate(root, env)
            with pytest.raises(ValueError) as got:
                compile_evaluator(*roots)(env)
            assert str(got.value) == str(expected.value)

    def test_bot_free_design_compiles_to_plain_arithmetic(self):
        expr = trunc(X * Y + (X & Y), 5) >> Z
        assert "BOT" not in compile_evaluator(expr).__source__
        guarded = assume(expr, gt(X, 1))
        assert "is BOT" in compile_evaluator(guarded + 1).__source__

    def test_shared_subterms_compile_once(self):
        shared = X * Y + Z
        simulate = compile_evaluator(shared + 1, shared - 1)
        assert simulate.__source__.count("*") == 1
        assert simulate({"x": 2, "y": 3, "z": 1}) == (8, 6)


# ------------------------------------------------------------ registry pairs
@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_registry_pairs_agree_on_seeded_envs(name):
    """Each design's original and extracted trees, sampled over their full
    input widths (outside the declared ranges too, where assumptions
    introduced by the optimizer evaluate to ``*``)."""
    design = DESIGNS[name]
    config = OptimizerConfig(iter_limit=3, node_limit=design.node_limit, verify=False)
    module = DatapathOptimizer(design.input_ranges, config).optimize_verilog(design.verilog)
    rng = random.Random(0)
    for result in module.outputs.values():
        roots = (result.original, result.optimized)
        widths = input_variables(result.original)
        widths.update(input_variables(result.optimized))
        envs = [
            {v: rng.randrange(1 << w) for v, w in sorted(widths.items())}
            for _ in range(64)
        ]
        assert_agree(roots, envs)
