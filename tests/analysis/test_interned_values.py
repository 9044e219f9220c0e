"""Interned analysis values and the memoized interval-set predicates.

``IntervalSet`` computes ``as_point``, ``truthiness`` and ``is_top`` once,
when a set is first interned, and ``AbsVal`` keeps one instance per
``(iset, total)`` on its interned set.  These tests hold the memos to the
definitions they replace (written out here from ``parts``), and check that
the interned instances survive a pickle round trip and a ``_clean_copy``
of a graph as the very same objects.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ANALYSIS_NAME, AbsVal, DatapathAnalysis
from repro.egraph import EGraph
from repro.intervals import Interval, IntervalSet
from repro.ir import var
from repro.ir.expr import assume, gt, mux


def _bound(draw_lo, draw_hi):
    return st.one_of(st.none(), st.integers(draw_lo, draw_hi))


@st.composite
def interval_sets(draw):
    """Bounded, half-open and unbounded sets, empty and singletons too."""
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        lo = draw(_bound(-6, 6))
        hi = draw(_bound(-6, 6))
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        pieces.append(Interval(lo, hi))
    return IntervalSet.from_intervals(pieces)


def _as_point(iset: IntervalSet) -> int | None:
    if len(iset.parts) == 1 and iset.parts[0].is_point:
        return iset.parts[0].lo
    return None


def _is_top(iset: IntervalSet) -> bool:
    return len(iset.parts) == 1 and iset.parts[0] == Interval(None, None)


def _truthiness(iset: IntervalSet) -> bool | None:
    if _as_point(iset) == 0:
        return False
    if not iset.is_empty and not any(p.contains(0) for p in iset.parts):
        return True
    return None


@settings(max_examples=300, deadline=None)
@given(interval_sets())
def test_memoized_predicates_agree_with_their_definitions(iset):
    assert iset.as_point() == _as_point(iset)
    assert iset.is_top == _is_top(iset)
    assert iset.truthiness() is _truthiness(iset)


@settings(max_examples=200, deadline=None)
@given(interval_sets(), st.booleans())
def test_absval_is_interned_per_set_and_totality(iset, total):
    value = AbsVal(iset, total)
    assert AbsVal(iset, total) is value
    assert AbsVal(IntervalSet(iset.parts), total) is value
    assert AbsVal(iset, not total) is not value
    assert AbsVal(iset, not total) != value
    assert pickle.loads(pickle.dumps(iset)) is iset
    assert pickle.loads(pickle.dumps(value)) is value
    joined = value.join(AbsVal(iset, not total))
    assert joined is AbsVal(iset, True)


def test_equality_stays_structural_across_distinct_instances():
    """Two equal sets may be distinct objects once the bounded intern table
    is cleared; their values must still compare and hash equal."""
    iset = IntervalSet.of(3, 9)
    twin = object.__new__(IntervalSet)
    for slot in IntervalSet.__slots__:
        object.__setattr__(twin, slot, getattr(iset, slot))
    twin._abs = None
    assert twin is not iset and twin == iset
    left, right = AbsVal(iset, True), AbsVal(twin, True)
    assert left is not right
    assert left == right and hash(left) == hash(right)


def test_absval_is_immutable():
    value = AbsVal(IntervalSet.of(0, 1), True)
    with pytest.raises(AttributeError, match="immutable"):
        value.total = False
    assert value.total is True


def test_graph_copies_keep_the_interned_values():
    """A pickled graph and a ``_clean_copy`` carry the interned analysis
    values themselves, not equal copies of them."""
    g = EGraph([DatapathAnalysis({"x": IntervalSet.of(0, 9)})])
    x, y = var("x", 8), var("y", 8)
    g.add_expr(mux(gt(x, y), assume(x + y, gt(x, y)), x - y))
    g.rebuild()
    revived = pickle.loads(pickle.dumps(g))
    copied = g.core._clean_copy()
    for root in g.core.class_ids():
        value = g.class_data[root][ANALYSIS_NAME]
        assert AbsVal(value.iset, value.total) is value
        assert revived.class_data[root][ANALYSIS_NAME] is value
        assert copied.class_data[root][ANALYSIS_NAME] is value


def _bare_new(cls):
    """``copyreg.__newobj__`` without the pickler's class check."""
    return cls.__new__(cls)


class _PickledBeforeInterning:
    """Pickles the way ``AbsVal`` did as a frozen, slotted dataclass, which
    the format-2 artifacts of older builds hold: a bare ``__new__`` call,
    then the field list as state."""

    def __init__(self, value: AbsVal) -> None:
        self.value = value

    def __reduce_ex__(self, protocol):
        return (_bare_new, (AbsVal,), [self.value.iset, self.value.total])


@pytest.mark.parametrize("total", [True, False])
def test_a_value_pickled_before_interning_loads_equal(total):
    value = AbsVal(IntervalSet.of(2, 5), total)
    revived = pickle.loads(pickle.dumps(_PickledBeforeInterning(value)))
    assert type(revived) is AbsVal
    assert revived == value and hash(revived) == hash(value)
    assert revived.iset is value.iset and revived.total is total
    assert revived.join(value) == value
