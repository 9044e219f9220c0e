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
"""

from __future__ import annotations

from typing import Callable

from repro.analysis import range_of, total_of
from repro.egraph.egraph import EGraph
from repro.egraph.pattern import as_pattern, class_vars, eval_attr, parse_pattern
from repro.egraph.rewrite import Rewrite, rewrite
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
    """A declarative datapath rule with automatic totality guards.

    ``unguarded`` exempts variables that are dropped from a *non-strict*
    position (a mux branch is never evaluated when not selected, so dropping
    it needs no totality proof).  ``guards`` are checked at search time,
    ``conditions`` at apply time (see :class:`~repro.egraph.rewrite.Rewrite`).
    """
    lhs_pat, rhs_pat = as_pattern(lhs), as_pattern(rhs)
    dropped = sorted(class_vars(lhs_pat) - class_vars(rhs_pat) - set(unguarded))
    if dropped:
        conditions = (_all_total(dropped), *conditions)
    return rewrite(name, lhs_pat, rhs_pat, *conditions, once=once, guards=guards)


def _all_total(names: list[str]) -> Callable[[EGraph, dict], bool]:
    def check(egraph: EGraph, env: dict) -> bool:
        return all(total_of(egraph, env[n]) for n in names if n in env)

    return check


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

    def check(egraph: EGraph, env: dict) -> bool:
        return all(range_of(egraph, env[n]).issubset(zero_one) for n in names)

    return check


def total(*names: str) -> Callable[[EGraph, dict], bool]:
    """Condition: each named class is provably total (never ``*``)."""

    def check(egraph: EGraph, env: dict) -> bool:
        return all(total_of(egraph, env[n]) for n in names)

    return check


def range_le(small: str, large: str) -> Callable[[EGraph, dict], bool]:
    """Condition: ``small``'s range lies entirely at or below ``large``'s."""

    def check(egraph: EGraph, env: dict) -> bool:
        hi = range_of(egraph, env[small]).max()
        lo = range_of(egraph, env[large]).min()
        return hi is not None and lo is not None and hi <= lo

    return check
