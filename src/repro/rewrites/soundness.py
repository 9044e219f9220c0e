"""Rule-construction helpers that keep rewrites sound over ``Z' = Z ∪ {*}``.

The e-graph's congruence is *pointwise equality including ``*``* (eq. (2) of
the paper works only because of this).  A classical identity like
``a - a -> 0`` is therefore unsound when ``a`` may evaluate to ``*``: the
left side is ``*`` wherever ``a`` is, the right side never.  The fix is a
*totality guard*: the rule may fire only when every variable the RHS drops is
provably total.  :func:`drule` derives those guards automatically from the
pattern variables, so individual rules cannot forget them.

The condition factories below are what the rule auditor
(:mod:`repro.lint.rules`) can concretize.  Attribute arguments are
attribute slots in pattern syntax: ``"0"``, ``"?w"``, ``"(- ?w ?s)"``.
A class name may name a constraint tail (``?cs...``): the condition then
holds for each class of the tail.  :func:`derive` is the one guard that
binds: it computes an attribute from class ranges at search time.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis import range_of, total_of
from repro.egraph.egraph import EGraph
from repro.egraph.pattern import as_pattern, class_vars, eval_attr, parse_pattern
from repro.egraph.rewrite import Arm, Rewrite, arm
from repro.intervals import IntervalSet


def drule(
    name: str,
    lhs: str,
    rhs: str,
    *conditions,
    once: bool = False,
    unguarded: tuple[str, ...] = (),
    guards: tuple = (),
) -> Rewrite:
    """A one-arm declarative datapath rule (see :func:`darm`)."""
    only = darm(lhs, rhs, *conditions, unguarded=unguarded, guards=guards)
    return Rewrite(name, (only,), once)


def darm(
    lhs: str,
    rhs: str,
    *conditions,
    unguarded: tuple[str, ...] = (),
    guards: tuple = (),
) -> Arm:
    """One arm of a declarative datapath rule, with automatic totality
    guards.

    ``unguarded`` exempts variables that are dropped from a *non-strict*
    position (a mux branch is never evaluated when not selected, so dropping
    it needs no totality proof).  ``guards`` are checked at search time,
    ``conditions`` at apply time (see :class:`~repro.egraph.rewrite.Arm`).
    """
    lhs_pat, rhs_pat = as_pattern(lhs), as_pattern(rhs)
    dropped = sorted(class_vars(lhs_pat) - class_vars(rhs_pat) - set(unguarded))
    if dropped:
        conditions = (total(*dropped), *conditions)
    return arm(lhs_pat, rhs_pat, *conditions, guards=guards)


# ------------------------------------------------------------------ conditions
def bounded(
    *names: str, lo: int | None = None, hi: int | None = None
) -> Callable[[EGraph, dict], bool]:
    """Condition: each named class's range has a lower bound ``>= lo`` and
    an upper bound ``<= hi`` (an unbounded or empty range has neither)."""

    def check(egraph: EGraph, env: dict) -> bool:
        for name in names:
            iset = range_of(egraph, env[name])
            if lo is not None and (iset.min() is None or iset.min() < lo):
                return False
            if hi is not None and (iset.max() is None or iset.max() > hi):
                return False
        return True

    return check


def nonneg(*names: str) -> Callable[[EGraph, dict], bool]:
    """Condition: each named class has a provably non-negative range."""
    return bounded(*names, lo=0)


def fits(name: str, width: str) -> Callable[[EGraph, dict], bool]:
    """Condition: the named class's range lies in ``[0, 2^width)``."""
    width_attr = parse_pattern(width, attr=True)

    def check(egraph: EGraph, env: dict) -> bool:
        box = IntervalSet.unsigned(eval_attr(width_attr, env))
        return range_of(egraph, env[name]).issubset(box)

    return check


def attr_lt(small: str, large: str) -> Callable[[EGraph, dict], bool]:
    """Condition: attribute ``small`` is below attribute ``large``."""
    low, high = parse_pattern(small, attr=True), parse_pattern(large, attr=True)

    def check(egraph: EGraph, env: dict) -> bool:
        return eval_attr(low, env) < eval_attr(high, env)

    return check


def boolean(*names: str) -> Callable[[EGraph, dict], bool]:
    """Condition: each named class has range within {0, 1}."""
    zero_one = IntervalSet.of(0, 1)
    return _each(names, lambda egraph, c: range_of(egraph, c).issubset(zero_one))


def total(*names: str) -> Callable[[EGraph, dict], bool]:
    """Condition: each named class is provably total (never ``*``)."""
    return _each(names, lambda egraph, c: total_of(egraph, c))


def truthy(*names: str) -> Callable[[EGraph, dict], bool]:
    """Condition: each named class's range excludes zero."""
    return _each(names, lambda egraph, c: range_of(egraph, c).truthiness() is True)


def falsy(*names: str) -> Callable[[EGraph, dict], bool]:
    """Condition: each named class's range is exactly zero."""
    return _each(names, lambda egraph, c: range_of(egraph, c).truthiness() is False)


def _each(names: tuple, test: Callable[[EGraph, int], bool]) -> Callable[[EGraph, dict], bool]:
    """Condition: ``test(egraph, class)`` for each class bound to ``names``
    (each class of a constraint tail); the auditor reads the factory that
    built ``test`` from its qualified name."""

    def check(egraph: EGraph, env: dict) -> bool:
        for name in names:
            value = env[name]
            for c in value if value.__class__ is tuple else (value,):
                if not test(egraph, c):
                    return False
        return True

    return check


def pow2(value: str) -> Callable[[EGraph, dict], bool]:
    """Condition: an attribute (e.g. a ``(const ?v)`` value) is a positive
    power of two, so ``(log2 ?v)`` is exact."""
    attr = parse_pattern(value, attr=True)

    def check(egraph: EGraph, env: dict) -> bool:
        v = eval_attr(attr, env)
        return v > 0 and v & (v - 1) == 0

    return check


def unless(guard: Callable[[EGraph, dict], bool]) -> Callable[[EGraph, dict], bool]:
    """Condition: ``guard`` does not hold (an ``elif`` after another arm)."""

    def check(egraph: EGraph, env: dict) -> bool:
        return not guard(egraph, env)

    return check


def derive(name: str, value: str) -> Callable[[EGraph, dict], bool]:
    """Search-time guard binding attribute ``name`` to ``value``, which may
    read class ranges, e.g. ``derive("k", "(- ?w (bitlen (lo ?x)))")``; it
    fails when a range it reads has no such bound."""
    expr = parse_pattern(value, attr=True)

    def check(egraph: EGraph, env: dict) -> bool:
        def bounds(var: str) -> tuple:
            return range_of(egraph, env[var]).min(), range_of(egraph, env[var]).max()

        env[name] = eval_attr(expr, env, bounds)
        return env[name] is not None

    check.derives = name
    return check


def range_le(small: str, large: str) -> Callable[[EGraph, dict], bool]:
    """Condition: ``small``'s range lies entirely at or below ``large``'s."""

    def check(egraph: EGraph, env: dict) -> bool:
        hi = range_of(egraph, env[small]).max()
        lo = range_of(egraph, env[large]).min()
        return hi is not None and lo is not None and hi <= lo

    return check
