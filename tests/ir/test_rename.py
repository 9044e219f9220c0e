"""Order-preserving rename-canonical keys (:mod:`repro.ir.rename`).

Equal keys license renaming one cone's optimized result onto another, so
the key must be equal under every renaming that preserves widths, ranges
and the sorted order of the input names, and must break when any of those
— or a constant, an attribute, the DAG's sharing or the root order —
changes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import DESIGNS
from repro.designs.registry import design_roots
from repro.intervals import IntervalSet
from repro.ir import ops, var
from repro.ir.expr import Expr, const, lt, lzc, mux
from repro.ir.rename import rename_key, rename_vars


def _lane(a: str, b: str, width: int = 8, k: int = 1) -> Expr:
    x, y = var(a, width), var(b, width)
    s = x + y
    return mux(lt(s, const(200)), s * x, lzc(s, 9) + k)


def test_equal_under_an_order_preserving_renaming():
    key, names = rename_key([_lane("x", "y")], {"x": IntervalSet.of(128, 255)})
    other, other_names = rename_key(
        [_lane("p", "q")], {"p": IntervalSet.of(128, 255)}
    )
    assert key == other
    assert names == ("x", "y") and other_names == ("p", "q")


@pytest.mark.parametrize(
    "changed",
    [
        pytest.param((_lane("x", "y", width=9), {}), id="width"),
        pytest.param((_lane("x", "y", k=2), {}), id="constant"),
        pytest.param(
            (_lane("x", "y"), {"x": IntervalSet.of(0, 10)}), id="range-added"
        ),
        pytest.param((_lane("y", "x"), {}), id="name-order"),
    ],
)
def test_breaks_when_anything_but_the_names_changes(changed):
    root, ranges = changed
    assert rename_key([_lane("x", "y")])[0] != rename_key([root], ranges)[0]


def test_range_values_and_owners_are_part_of_the_key():
    base = rename_key([_lane("x", "y")], {"x": IntervalSet.of(0, 10)})[0]
    assert base != rename_key([_lane("x", "y")], {"x": IntervalSet.of(0, 11)})[0]
    assert base != rename_key([_lane("x", "y")], {"y": IntervalSet.of(0, 10)})[0]
    # A range on a name the cone never reads is not part of its problem.
    assert base == rename_key(
        [_lane("x", "y")], {"x": IntervalSet.of(0, 10), "z": IntervalSet.of(1, 2)}
    )[0]


def test_dag_sharing_is_part_of_the_key():
    x, y = var("x", 8), var("y", 8)
    shared = (x + y) * (x + y)
    distinct = (x + y) * (y + x)
    assert rename_key([shared])[0] != rename_key([distinct])[0]
    # One root computed twice versus two renamed copies of it.
    a, b = var("a", 8), var("b", 8)
    assert rename_key([x + y, x + y])[0] != rename_key([x + y, a + b])[0]


def test_root_order_and_attributes_are_part_of_the_key():
    x, y = var("x", 8), var("y", 8)
    assert rename_key([x + y, x * y])[0] != rename_key([x * y, x + y])[0]
    sliced = Expr(ops.SLICE, (3, 0), (x,))
    assert rename_key([sliced])[0] != rename_key([Expr(ops.SLICE, (4, 0), (x,))])[0]


def test_rename_vars_maps_names_and_keeps_sharing():
    x, y = var("x", 8), var("y", 4)
    s = x + y
    renamed_root, renamed_twin = rename_vars([s * s, s], {"x": "p", "y": "q"})
    assert renamed_root == (var("p", 8) + var("q", 4)) * (var("p", 8) + var("q", 4))
    assert renamed_root.children[0] is renamed_root.children[1] is renamed_twin
    with pytest.raises(KeyError):
        rename_vars([s], {"x": "p"})


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_registry_designs_key_equal_to_their_prefixed_renaming(design):
    roots = list(design_roots(design).values())
    ranges = DESIGNS[design].input_ranges
    key, names = rename_key(roots, ranges)
    mapping = {name: f"r_{name}" for name in names}
    renamed = rename_vars(roots, mapping)
    other, other_names = rename_key(
        renamed, {mapping[n]: iset for n, iset in ranges.items() if n in mapping}
    )
    assert other == key
    assert other_names == tuple(mapping[n] for n in names)


@st.composite
def dags(draw) -> list[Expr]:
    """Random DAGs over four inputs with shared subterms and constants."""
    pool: list[Expr] = [var(name, 6) for name in "abcd"] + [const(3)]
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from([ops.ADD, ops.MUL, ops.SUB, ops.LT]))
        left = pool[draw(st.integers(0, len(pool) - 1))]
        right = pool[draw(st.integers(0, len(pool) - 1))]
        pool.append(Expr(kind, (), (left, right)))
    count = draw(st.integers(1, 3))
    return [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(roots=dags(), prefix=st.sampled_from(["r_", "lane7_", "z"]))
def test_random_dags_keep_their_key_under_a_prefix(roots, prefix):
    ranges = {"a": IntervalSet.of(1, 9), "c": IntervalSet.of(0, 0)}
    key, names = rename_key(roots, ranges)
    mapping = {name: prefix + name for name in names}
    other, other_names = rename_key(
        rename_vars(roots, mapping),
        {mapping[n]: iset for n, iset in ranges.items() if n in mapping},
    )
    assert other == key
    assert other_names == tuple(mapping[n] for n in names)
    # Renaming back is the identity.
    back = {new: old for old, new in mapping.items()}
    assert rename_vars(rename_vars(roots, mapping), back) == roots
