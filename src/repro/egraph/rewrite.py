"""Rewrite rules: declarative (pattern -> pattern) and dynamic (Python).

A declarative :class:`Rewrite` is a name, one backoff budget and an ordered
list of arms (:class:`Arm`): a left-hand side, side conditions and a
right-hand side each.  The runner's :class:`~repro.egraph.query.QueryPlan`
tries the arms in order on each candidate node; applying a match builds
its arm's right-hand side and unions it with the matched class
(constructive application — the left-hand side stays in the graph, as
Section II of the paper emphasizes).  Side conditions run at one of two
times: *guards* on each match in the search phase, before the backoff
budget cuts the match list, and *conditions* at apply time, after earlier
applications of the same iteration.

Dynamic rules bypass the pattern language: a searcher inspects the e-graph
and an applier returns the class to union.  What the language cannot
express stays dynamic (negative guards, right-hand sides that rebuild
whichever operator was found, or that are built in another order than
bottom-up).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.egraph.egraph import EGraph
from repro.egraph.pattern import Pattern, PatternNode, as_pattern, pattern_vars
from repro.egraph.query import ARM, Builder

#: A condition receives (egraph, env) and vetoes the application when False.
Condition = Callable[[EGraph, dict], bool]

#: Dynamic searcher: egraph, per-op index -> iterable of (class_id, env).
#: The index is read through ``index.get(op, ())`` only: a list of
#: ``(class_id, enode)`` per operator, as :meth:`EGraph.nodes_by_op` maps it.
Searcher = Callable[[EGraph, dict], Iterable[tuple[int, dict]]]

#: Dynamic applier: egraph, env, matched class -> replacement class id or
#: None to skip.  The rewrite unions the result with the matched class.
Applier = Callable[[EGraph, dict, int], "int | None"]


@dataclass(frozen=True)
class Arm:
    """One alternative of a declarative rule."""

    lhs: PatternNode
    rhs: Pattern
    conditions: tuple[Condition, ...] = ()  #: checked at apply time
    guards: tuple[Condition, ...] = ()  #: checked at search time, before the budget


@dataclass
class Rewrite:
    """A named rewrite rule: declarative ``arms``, or a dynamic
    ``searcher`` and ``applier``."""

    name: str
    arms: tuple[Arm, ...] = ()
    #: Rules marked ``once`` stop firing after their first successful
    #: application (used for case-split introduction, Section V).
    once: bool = False
    searcher: Searcher | None = None
    applier: Applier | None = None

    def search(self, egraph: EGraph, index: dict, limit: int) -> list[tuple[int, dict]]:
        """All match candidates of a dynamic rule, capped at ``limit``.

        Declarative rules are searched by the runner's compiled
        :class:`~repro.egraph.query.QueryPlan`, not here.
        """
        found = []
        for item in self.searcher(egraph, index):
            found.append(item)
            if len(found) >= limit:
                break
        return found

    def bind(
        self, egraph: EGraph, builders: "tuple[Builder, ...]" = ()
    ) -> Callable[[int, dict], bool]:
        """The per-match apply step on ``egraph``: ``step(class_id, env)``
        checks the conditions, builds the right-hand side, unions it with
        the matched class and returns True when the graph changed.

        Everything that does not depend on the match is resolved here, once.
        Each arm's right-hand side is built by its ``builders`` entry (the
        runner's :class:`~repro.egraph.query.QueryPlan` compiles them); a
        match of a rule with several arms names its arm under
        :data:`~repro.egraph.query.ARM`.  A dynamic rule calls its applier.
        """
        core = egraph.core
        if self.applier is None:
            union = core.union
            table = [
                (arm.conditions, build)
                for arm, build in zip(self.arms, builders, strict=True)
            ]

            def step(class_id: int, env: dict) -> bool:
                conditions, build = table[env.get(ARM, 0)]
                for cond in conditions:
                    if not cond(egraph, env):
                        return False
                before = core.version
                union(class_id, build(core, env))
                return core.version != before

            return step

        applier = self.applier

        def step(class_id: int, env: dict) -> bool:
            before = egraph.version
            new_id = applier(egraph, env, egraph.find(class_id))
            if new_id is not None:
                egraph.union(class_id, new_id)
            return egraph.version != before

        return step

    def __repr__(self) -> str:
        return f"Rewrite({self.name})"


def arm(lhs, rhs, *conditions: Condition, guards: tuple[Condition, ...] = ()) -> Arm:
    """One arm from patterns or s-expression strings; every right-hand-side
    variable must be bound by the left-hand side or by a ``derive`` guard."""
    lhs, rhs = as_pattern(lhs), as_pattern(rhs)
    derived = {getattr(g, "derives", None) for g in guards}
    missing = pattern_vars(rhs) - pattern_vars(lhs) - derived
    if missing:
        raise ValueError(f"unbound RHS variables {sorted(missing)} in {rhs}")
    return Arm(lhs, rhs, tuple(conditions), tuple(guards))


def rewrite(
    name: str,
    lhs: "Pattern | str",
    rhs: "Pattern | str",
    *conditions: Condition,
    once: bool = False,
    guards: tuple[Condition, ...] = (),
) -> Rewrite:
    """Build a one-arm declarative rule from s-expression strings.

    >>> rewrite("mul-two", "(* ?a 2)", "(<< ?a 1)")
    Rewrite(mul-two)
    """
    return Rewrite(name, (arm(lhs, rhs, *conditions, guards=guards),), once)


def dynamic(name: str, searcher: Searcher, applier: Applier, once: bool = False) -> Rewrite:
    """A fully dynamic rule."""
    return Rewrite(name, once=once, searcher=searcher, applier=applier)
