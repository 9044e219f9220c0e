"""Order-preserving rename-canonical keys for ``Expr`` DAGs.

Wide datapaths repeat one structure across lanes: lane ``k`` reads
``x_k, y_k`` where lane ``0`` reads ``x_0, y_0``.  Two such cones are the
same problem for every pass that reads input names only through sorts and
first-occurrence walks, so an optimizer may solve one and rename the answer
onto the other.  :func:`rename_key` decides when that is exact.

The key numbers input variables by first occurrence in a deterministic
children-first walk of the roots and keeps, per input, its declared width
and input-range constraint, plus the *rank order* of the original names.
Equal keys therefore mean the DAGs (sharing included) agree up to a
bijective renaming that preserves widths, ranges and the sorted order of
the names — which is what a sort over names (an exhaustive sweep, a BDD
variable order, a domain condition) observes.  Unlike
:mod:`repro.ir.digest` this is not commutativity-invariant: children keep
their order, because the passes the key stands in for do too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.ir import ops
from repro.ir.expr import Expr

if TYPE_CHECKING:
    from repro.intervals import IntervalSet

__all__ = ["rename_key", "rename_vars"]


def rename_key(
    roots: Sequence[Expr],
    input_ranges: Mapping[str, IntervalSet] | None = None,
) -> tuple[tuple, tuple[str, ...]]:
    """``(key, names)`` for ``roots``: the rename-canonical form of the DAG
    and its input names in first-occurrence order.

    Two root sequences with equal keys are the same DAG under the renaming
    that sends the first sequence's ``names[i]`` to the second's
    ``names[i]``; that renaming preserves widths, ranges and name order.
    """
    index: dict[Expr, int] = {}
    nodes: list[tuple] = []
    names: dict[str, int] = {}
    for root in roots:
        stack: list[tuple[Expr, bool]] = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if node in index:
                continue
            if not ready:
                stack.append((node, True))
                # Reversed, so the leftmost child is visited first.
                for child in reversed(node.children):
                    if child not in index:
                        stack.append((child, False))
                continue
            attrs = node.attrs
            if node.op is ops.VAR:
                name, width = attrs
                attrs = (names.setdefault(name, len(names)), width)
            index[node] = len(nodes)
            nodes.append(
                (node.op.name, attrs, tuple(index[c] for c in node.children))
            )
    order = tuple(names)
    ranges = dict(input_ranges or {})
    domains = tuple(
        tuple((part.lo, part.hi) for part in ranges[name].parts)
        if name in ranges
        else None
        for name in order
    )
    rank = tuple(sorted(range(len(order)), key=order.__getitem__))
    key = (tuple(nodes), tuple(index[root] for root in roots), domains, rank)
    return key, order


def rename_vars(roots: Iterable[Expr], mapping: Mapping[str, str]) -> list[Expr]:
    """``roots`` with every input ``name`` replaced by ``mapping[name]``.

    Shared subterms stay shared (one memo across all roots); a name missing
    from ``mapping`` raises ``KeyError``.
    """
    memo: dict[Expr, Expr] = {}
    out = []
    for root in roots:
        stack: list[tuple[Expr, bool]] = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if node in memo:
                continue
            if not ready:
                stack.append((node, True))
                stack.extend(
                    (child, False) for child in node.children if child not in memo
                )
                continue
            if node.op is ops.VAR:
                name, width = node.attrs
                memo[node] = Expr(ops.VAR, (mapping[name], width))
            elif node.children:
                memo[node] = Expr(
                    node.op, node.attrs, tuple(memo[c] for c in node.children)
                )
            else:
                memo[node] = node
        out.append(memo[root])
    return out
