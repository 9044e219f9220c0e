"""Rewrite rules: declarative (pattern -> pattern) and dynamic (Python).

A :class:`Rewrite` couples a *searcher* with an *applier*:

* the searcher produces ``(class_id, env)`` match candidates;
* the applier builds the right-hand side and unions it with the matched
  class (constructive application — the left-hand side stays in the graph,
  as Section II of the paper emphasizes).

Dynamic rules bypass the pattern language entirely: a callable inspects the
e-graph and returns the unions it wants.  The ASSUME machinery of Table I and
the analysis-driven rules ("x is provably constant here") are dynamic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.egraph.egraph import EGraph
from repro.egraph.pattern import Pattern, as_pattern, pattern_vars
from repro.egraph.query import Builder, compile_builder

#: A condition receives (egraph, env) and vetoes the application when False.
Condition = Callable[[EGraph, dict], bool]

#: Dynamic searcher: egraph, per-op index -> iterable of (class_id, env).
#: The index is read through ``index.get(op, ())`` only: a list of
#: ``(class_id, enode)`` per operator, as :meth:`EGraph.nodes_by_op` maps it.
Searcher = Callable[[EGraph, dict], Iterable[tuple[int, dict]]]

#: Dynamic applier: egraph, env, matched class -> replacement class id or
#: None to skip.  The rewrite unions the result with the matched class.
Applier = Callable[[EGraph, dict, int], "int | None"]


@dataclass
class Rewrite:
    """A named rewrite rule."""

    name: str
    searcher: "Pattern | Searcher"
    applier: "Pattern | Applier"
    conditions: tuple[Condition, ...] = ()
    #: Rules marked ``once`` stop firing after their first successful
    #: application (used for case-split introduction, Section V).
    once: bool = False

    def search(self, egraph: EGraph, index: dict, limit: int) -> list[tuple[int, dict]]:
        """All match candidates of a callable searcher, capped at ``limit``.

        Declarative left-hand sides are searched by the runner's compiled
        :class:`~repro.egraph.query.QueryPlan`, not here.
        """
        if not callable(self.searcher):
            raise TypeError(f"rule {self.name}: declarative rules search through a QueryPlan")
        found = []
        for item in self.searcher(egraph, index):
            found.append(item)
            if len(found) >= limit:
                break
        return found

    def apply(self, egraph: EGraph, class_id: int, env: dict) -> bool:
        """Apply to one match; returns True when the graph changed."""
        builder = None if callable(self.applier) else compile_builder(self.applier)
        return self.bind(egraph, builder)(class_id, env)

    def bind(
        self, egraph: EGraph, builder: "Builder | None" = None
    ) -> Callable[[int, dict], bool]:
        """The per-match apply step on ``egraph``: ``step(class_id, env)``
        checks the conditions, builds the right-hand side, unions it with
        the matched class and returns True when the graph changed.

        Everything that does not depend on the match is resolved here, once.
        A declarative right-hand side is built by ``builder``, its
        :func:`~repro.egraph.query.compile_builder` output (the runner's
        :class:`~repro.egraph.query.QueryPlan` compiles them with the
        matchers); a dynamic rule calls its applier.
        """
        conditions = self.conditions
        applier = self.applier
        core = egraph.core
        if not callable(applier):
            if builder is None:
                raise ValueError(f"rule {self.name}: declarative apply needs its builder")
            union = core.union

            def step(class_id: int, env: dict) -> bool:
                for cond in conditions:
                    if not cond(egraph, env):
                        return False
                before = core.version
                union(class_id, builder(core, env))
                return core.version != before

            return step

        def step(class_id: int, env: dict) -> bool:
            for cond in conditions:
                if not cond(egraph, env):
                    return False
            before = egraph.version
            new_id = applier(egraph, env, egraph.find(class_id))
            if new_id is not None:
                egraph.union(class_id, new_id)
            return egraph.version != before

        return step

    def __repr__(self) -> str:
        return f"Rewrite({self.name})"


def rewrite(
    name: str,
    lhs: "Pattern | str",
    rhs: "Pattern | str | Applier",
    *conditions: Condition,
    once: bool = False,
) -> Rewrite:
    """Build a rule from s-expression strings (or a dynamic applier).

    >>> rewrite("mul-two", "(* ?a 2)", "(<< ?a 1)")
    Rewrite(mul-two)
    """
    lhs_pat = as_pattern(lhs)
    if callable(rhs):
        return Rewrite(name, lhs_pat, rhs, tuple(conditions), once)
    rhs_pat = as_pattern(rhs)
    missing = pattern_vars(rhs_pat) - pattern_vars(lhs_pat)
    if missing:
        raise ValueError(f"rule {name}: unbound RHS variables {sorted(missing)}")
    return Rewrite(name, lhs_pat, rhs_pat, tuple(conditions), once)


def birewrite(
    name: str, lhs: "Pattern | str", rhs: "Pattern | str", *conditions: Condition
) -> list[Rewrite]:
    """A rule applied in both directions (two :class:`Rewrite` objects)."""
    return [
        rewrite(f"{name}", lhs, rhs, *conditions),
        rewrite(f"{name}-rev", rhs, lhs, *conditions),
    ]


def dynamic(name: str, searcher: Searcher, applier: Applier, once: bool = False) -> Rewrite:
    """A fully dynamic rule."""
    return Rewrite(name, searcher, applier, (), once)
