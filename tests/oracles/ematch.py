"""The interpreted e-matcher and right-hand-side instantiation.

:func:`ematch` walks a pattern tree per candidate e-node through the
object-shaped façade (:class:`~repro.egraph.enode.ENode` views, recursive
generators, ``find`` on every id), so it works on dirty graphs too, and
:func:`instantiate` builds a pattern bottom-up through
:meth:`EGraph.add_node`.  The package searches and builds through the
compiled matchers and builders of :mod:`repro.egraph.query`; these are the
plain versions the tests diff them against.
"""

from __future__ import annotations

from typing import Iterator

from repro.egraph.egraph import EGraph
from repro.egraph.enode import ENode
from repro.egraph.pattern import AttrVar, Pattern, PatternNode, PatternVar, eval_attr
from repro.ir import ops
from repro.ir.ops import Op


def _match_attrs(pattern: PatternNode, enode: ENode, env: dict) -> dict | None:
    """Unify the attribute tuples; returns the extended env or None."""
    new_env = env
    for pat_a, node_a in zip(pattern.attrs, enode.attrs, strict=True):
        if isinstance(pat_a, AttrVar):
            bound = new_env.get(pat_a.name, _UNSET)
            if bound is _UNSET:
                if new_env is env:
                    new_env = dict(env)
                new_env[pat_a.name] = node_a
            elif bound != node_a:
                return None
        elif pat_a != node_a:
            return None
    return new_env


_UNSET = object()


def match_in_class(
    egraph: EGraph, pattern: Pattern, class_id: int, env: dict
) -> Iterator[dict]:
    """Yield all environments extending ``env`` that place ``pattern`` in
    the e-class ``class_id``."""
    class_id = egraph.find(class_id)
    if isinstance(pattern, PatternVar):
        bound = env.get(pattern.name, _UNSET)
        if bound is _UNSET:
            new_env = dict(env)
            new_env[pattern.name] = class_id
            yield new_env
        elif egraph.find(bound) == class_id:
            yield env
        return

    members = [enode for enode in egraph[class_id].nodes if enode.op is pattern.op]
    if pattern.op is ops.CONST and isinstance(pattern.attrs[0], AttrVar):
        # ``(const ?s)`` reads the class's first CONST member, as
        # ``EGraph.class_const`` does.
        members = members[:1]
    for enode in members:
        if pattern.op.arity is None and len(enode.children) != len(pattern.children):
            continue
        yield from _match_node(egraph, pattern, enode, env)


def _match_node(
    egraph: EGraph, pattern: PatternNode, enode: ENode, env: dict
) -> Iterator[dict]:
    env2 = _match_attrs(pattern, enode, env)
    if env2 is None:
        return

    def rec(i: int, cur: dict) -> Iterator[dict]:
        if i == len(pattern.children):
            yield cur
            return
        for nxt in match_in_class(egraph, pattern.children[i], enode.children[i], cur):
            yield from rec(i + 1, nxt)

    yield from rec(0, env2)


def ematch(
    egraph: EGraph,
    pattern: Pattern,
    index: dict[Op, list[tuple[int, ENode]]] | None = None,
    limit: int = 100_000,
) -> list[tuple[int, dict]]:
    """Match ``pattern`` against every class; returns [(class id, env)].

    ``index`` is the per-op node index from :meth:`EGraph.nodes_by_op`;
    computing it once per runner iteration amortizes the scan.
    """
    results: list[tuple[int, dict]] = []
    if isinstance(pattern, PatternVar):
        raise ValueError("a bare pattern variable matches everything")
    if index is None:
        index = egraph.nodes_by_op()
    # The persistent index may hold stale entries for classes absorbed since
    # the last rebuild; canonicalize and dedup so each (root, e-node) pair is
    # matched exactly once instead of yielding duplicate environments.  On a
    # clean (just-rebuilt) graph every entry is already canonical and unique,
    # so the canonicalization and dedup are skipped entirely.
    clean = egraph.is_clean
    variadic = pattern.op.arity is None
    seen: set[tuple[int, ENode]] = set()
    for class_id, enode in index.get(pattern.op, ()):
        if variadic and len(enode.children) != len(pattern.children):
            continue
        if clean:
            root = class_id
        else:
            root = egraph.find(class_id)
            enode = enode.canonical(egraph.find)
            if (root, enode) in seen:
                continue
            seen.add((root, enode))
        for env in _match_node(egraph, pattern, enode, {}):
            results.append((root, env))
            if len(results) >= limit:
                return results
    return results


# --------------------------------------------------------------- instantiation
def instantiate(egraph: EGraph, pattern: Pattern, env: dict) -> int:
    """Build the pattern in the e-graph under ``env``; returns the class id."""
    if isinstance(pattern, PatternVar):
        return egraph.find(env[pattern.name])
    attrs = tuple(eval_attr(a, env) for a in pattern.attrs)
    children = tuple(instantiate(egraph, c, env) for c in pattern.children)
    return egraph.add_node(pattern.op, attrs, children)
