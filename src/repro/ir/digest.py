"""Alpha- and commutativity-invariant digest of an ``Expr`` DAG.

The service addresses results and warm-start artifacts by this digest, so
"same problem" is structural, not nominal: alpha-renaming the inputs or
reordering the children of commutative operators does not change it, while
any semantic difference (widths, constants, operator structure,
input-range constraints) does.

Canonicalization assigns variables alpha ids greedily: at each step the
unassigned variable whose tentative assignment minimizes the whole-DAG
digest gets the next id.  Digests are computed bottom-up over the shared
DAG with commutative children sorted by digest, so the comparison is
structure-only — two candidates tie exactly when they are symmetric under
the partial assignment, in which case either choice yields the same final
form.  The id assignment is a bijection, so equal digests mean the DAGs
agree up to input renaming and commutative reordering (up to SHA-256
collision).

Assigning one variable changes only the digests of its ancestor cone, so
the labeling keeps the digests *committed* under the partial assignment
and re-hashes just each candidate's cone on top of them: O(V²·|cone|)
hashes for V variables instead of O(V²·N) for the whole DAG.  Every walk
is iterative, so deep chains do not hit the recursion limit.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Mapping

from repro.ir import ops
from repro.ir.evaluate import _evaluation_order
from repro.ir.expr import Expr

if TYPE_CHECKING:
    from repro.intervals import IntervalSet

__all__ = ["canonical_digest", "output_digests"]


def _digest(*parts: object) -> str:
    """SHA-256 over a deterministic rendering of the parts."""
    payload = repr(parts).encode()
    return hashlib.sha256(payload).hexdigest()


def _root_digests(
    roots: tuple[Expr, ...],
    input_ranges: Mapping[str, IntervalSet] | None,
) -> list[str]:
    """Each root's digest under the final greedy labeling.

    VAR nodes drop their name: assigned variables render as their alpha id,
    unassigned ones as an anonymous ``?``.  Width and any input-range
    constraint stay part of the leaf (so the greedy assignment sees them —
    a constrained input is never symmetric with an unconstrained one).
    Children of commutative operators contribute as a sorted multiset of
    digests.
    """
    var_ranges = {
        name: tuple((part.lo, part.hi) for part in iset.parts)
        for name, iset in (input_ranges or {}).items()
    }

    def leaf(node: Expr, ident: int | None) -> str:
        tag = ("?",) if ident is None else ("v", ident)
        return _digest(
            "var", node.var_width, var_ranges.get(node.var_name, ()), tag
        )

    def interior(node: Expr, lookup) -> str:
        kids = [lookup(child) for child in node.children]
        if node.op in ops.COMMUTATIVE:
            kids.sort()
        return _digest(node.op.name, node.attrs, tuple(kids))

    order = _evaluation_order(roots)
    committed: dict[Expr, str] = {}
    parents: dict[Expr, list[Expr]] = {node: [] for node in order}
    for node in order:
        if node.op is ops.VAR:
            committed[node] = leaf(node, None)
            continue
        committed[node] = interior(node, committed.__getitem__)
        for child in node.children:
            parents[child].append(node)

    position = {node: index for index, node in enumerate(order)}
    variables = sorted(
        (node for node in order if node.op is ops.VAR),
        key=lambda node: (node.var_width, node.var_name),
    )
    cones: dict[Expr, list[Expr]] = {}
    for variable in variables:
        seen = {variable}
        stack = [variable]
        while stack:
            for parent in parents[stack.pop()]:
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        # Children before parents; the variable itself (a leaf) comes first.
        cones[variable] = sorted(seen, key=position.__getitem__)

    unassigned = list(variables)
    for next_id in range(len(variables)):
        best = best_key = best_trial = None
        for node in unassigned:
            trial = {node: leaf(node, next_id)}

            def lookup(child: Expr, trial=trial) -> str:
                return trial.get(child) or committed[child]

            for ancestor in cones[node][1:]:
                trial[ancestor] = interior(ancestor, lookup)
            candidate = _digest(tuple(sorted(map(lookup, roots))))
            # Ties mean the candidates are symmetric under the current
            # partial assignment; the name-ordered scan picks the first.
            if best_key is None or candidate < best_key:
                best, best_key, best_trial = node, candidate, trial
        unassigned.remove(best)
        committed.update(best_trial)
    return [committed[root] for root in roots]


def canonical_digest(
    roots: Expr | Mapping[str, Expr],
    input_ranges: Mapping[str, IntervalSet] | None = None,
) -> str:
    """Alpha- and commutativity-invariant digest of an ``Expr`` DAG.

    ``roots`` is one expression or a mapping of output name → expression;
    output names are interface labels, not structure, so multi-output
    designs hash the sorted multiset of per-root canonical forms.
    ``input_ranges`` constraints (keyed by source variable name) travel
    with their variable's leaf — a constraint on ``x`` follows ``x``
    through the renaming, so constraining ``x`` or ``y`` of a symmetric
    ``x + y`` yields the same key.
    """
    root_tuple = (
        (roots,) if isinstance(roots, Expr) else tuple(roots[k] for k in sorted(roots))
    )
    return _digest(tuple(sorted(_root_digests(root_tuple, input_ranges))))


def output_digests(
    roots: Mapping[str, Expr],
    input_ranges: Mapping[str, IntervalSet] | None = None,
) -> dict[str, str]:
    """Output name → its root's digest under the canonical labeling.

    :func:`canonical_digest` is the digest of the sorted multiset of these
    values, so it forgets which output computes what; this mapping keeps
    the binding for callers whose results are reported per output.
    """
    names = sorted(roots)
    digests = _root_digests(tuple(roots[name] for name in names), input_ranges)
    return dict(zip(names, digests, strict=True))
