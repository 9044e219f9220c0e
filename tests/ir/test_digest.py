"""The canonical digest: pinned values and the whole-DAG greedy as oracle.

Cache keys and the headers of persisted e-graph artifacts are this digest,
so its *values* are part of the contract, not just its invariances: a
digest that drifts silently turns every stored record and artifact into a
miss.  The pins below were recorded under two ``PYTHONHASHSEED``s with the
original whole-DAG implementation.  The differential test holds the
incremental labeling to that implementation, copied verbatim below, on
random DAGs with shared subterms, symmetric (tied) variables and range
constraints.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import DESIGNS
from repro.designs.registry import design_roots
from repro.intervals import IntervalSet
from repro.ir import ops, var
from repro.ir.digest import canonical_digest, output_digests
from repro.ir.expr import Expr, const, subterms
from repro.rtl import module_to_ir


# ---------------------------------------------------------------- the oracle
def _oracle_digest(*parts: object) -> str:
    """SHA-256 over a deterministic rendering of the parts."""
    payload = repr(parts).encode()
    return hashlib.sha256(payload).hexdigest()


def _dag_digests(
    roots: tuple[Expr, ...],
    var_ids: Mapping[Expr, int],
    var_ranges: Mapping[str, tuple],
) -> list[str]:
    """Bottom-up digest per root under a (possibly partial) var assignment.

    VAR nodes drop their name: assigned variables render as their alpha id,
    unassigned ones as an anonymous ``?``.  Width and any input-range
    constraint stay part of the leaf (so the greedy assignment sees them —
    a constrained input is never symmetric with an unconstrained one).
    Children of commutative operators contribute as a sorted multiset of
    digests.
    """
    memo: dict[Expr, str] = {}

    def rec(node: Expr) -> str:
        found = memo.get(node)
        if found is not None:
            return found
        if node.op is ops.VAR:
            ident = var_ids.get(node)
            tag = ("?",) if ident is None else ("v", ident)
            result = _oracle_digest(
                "var",
                node.var_width,
                var_ranges.get(node.var_name, ()),
                tag,
            )
        else:
            kids = [rec(child) for child in node.children]
            if node.op in ops.COMMUTATIVE:
                kids.sort()
            result = _oracle_digest(node.op.name, node.attrs, tuple(kids))
        memo[node] = result
        return result

    return [rec(root) for root in roots]


def oracle_canonical_digest(
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
    variables = sorted(
        (node for node in subterms(root_tuple) if node.is_var),
        key=lambda node: (node.var_width, node.var_name),
    )
    var_ranges = {
        name: tuple((part.lo, part.hi) for part in iset.parts)
        for name, iset in (input_ranges or {}).items()
    }

    def combined(assignment: Mapping[Expr, int]) -> str:
        return _oracle_digest(
            tuple(sorted(_dag_digests(root_tuple, assignment, var_ranges)))
        )

    var_ids: dict[Expr, int] = {}
    for next_id in range(len(variables)):
        best_node = best_key = None
        for node in variables:
            if node in var_ids:
                continue
            candidate = combined({**var_ids, node: next_id})
            # Ties mean the candidates are symmetric under the current
            # partial assignment; the name-ordered scan picks the first.
            if best_key is None or candidate < best_key:
                best_node, best_key = node, candidate
        var_ids[best_node] = next_id
    return combined(var_ids)


# ------------------------------------------------------------ pinned designs
def _rebuild(roots: dict, leaf, node_hook=None) -> dict:
    """Copy a DAG bottom-up, mapping VAR leaves through ``leaf`` and each
    rebuilt interior node through ``node_hook`` (sharing preserved)."""
    memo: dict[Expr, Expr] = {}

    def rec(node: Expr) -> Expr:
        found = memo.get(node)
        if found is None:
            if node.is_var:
                found = leaf(node)
            else:
                kids = tuple(rec(child) for child in node.children)
                found = Expr(node.op, node.attrs, kids)
                if node_hook is not None:
                    found = node_hook(found)
            memo[node] = found
        return found

    return {name: rec(root) for name, root in roots.items()}


def _renamed(design: str) -> tuple[dict, dict]:
    """The registry design with every input renamed (ranges carried along)."""
    spec = DESIGNS[design]

    def fresh(name: str) -> str:
        return f"renamed_{name[::-1]}"

    roots = _rebuild(
        design_roots(design), lambda v: var(fresh(v.var_name), v.var_width)
    )
    ranges = {fresh(name): iset for name, iset in spec.input_ranges.items()}
    return roots, ranges


def _commuted(design: str) -> tuple[dict, dict]:
    """The registry design with every commutative operator's children
    reversed."""

    def flip(node: Expr) -> Expr:
        if node.op in ops.COMMUTATIVE:
            return Expr(node.op, node.attrs, node.children[::-1])
        return node

    roots = _rebuild(design_roots(design), lambda v: v, flip)
    return roots, DESIGNS[design].input_ranges


def _edited(design: str, old: str, new: str, assign: str) -> tuple[dict, dict]:
    """A registry design with an internal wire exposed as a second output,
    constrained like the original."""
    source = DESIGNS[design].verilog.replace(old, new).replace(
        "endmodule", f"  {assign}\nendmodule"
    )
    roots = module_to_ir(source)
    names = {n.var_name for n in subterms(tuple(roots.values())) if n.is_var}
    ranges = {
        name: iset
        for name, iset in DESIGNS[design].input_ranges.items()
        if name in names
    }
    return roots, ranges


_X, _Y, _Z = var("x", 8), var("y", 8), var("z", 4)

#: Pin name -> (roots, input ranges).
CASES: dict[str, tuple] = {
    **{
        name: (design_roots(name), DESIGNS[name].input_ranges)
        for name in sorted(DESIGNS)
    },
    "fp_sub/unconstrained": (design_roots("fp_sub"), {}),
    "fp_sub/renamed": _renamed("fp_sub"),
    "fp_sub/commuted": _commuted("fp_sub"),
    "stress_wide/renamed": _renamed("stress_wide"),
    "interpolation/commuted": _commuted("interpolation"),
    "fp_sub/edited": _edited(
        "fp_sub",
        "output [9:0] out",
        "output [9:0] out,\n  output [4:0] expdiff_out",
        "assign expdiff_out = expdiff;",
    ),
    "stress_wide/edited": _edited(
        "stress_wide",
        "  output [14:0] out0",
        "  output [11:0] acc0_out,\n  output [14:0] out0",
        "assign acc0_out = acc0;",
    ),
    "multi/sum-diff": ({"a": _X + _Y, "b": _X - _Y}, {}),
    "multi/diff-sum": ({"p": _Y - _X, "q": _Y + _X}, {}),
    "multi/ranged": (
        {"a": _X * _Y + _Z, "b": _Z - _X, "c": _X * _Y},
        {"y": IntervalSet.of(1, 5)},
    ),
    "single/square-plus": (_X * _X + _Y, {}),
    "single/no-vars": (const(3) + const(4), {}),
}

#: Recorded with the whole-DAG implementation (the oracle above) under
#: ``PYTHONHASHSEED`` 0 and 12345, which agreed byte for byte.
PINS = {
    "float_to_unorm": "c41efcaddf4600eefb1252ce6f7e511ef6bf7b17333f838d70d7e85d57295a51",
    "fp_sub": "6b0c8e7470d93750921820a06f73b06354a8de34f5acf39036919e5d0acedaf9",
    "fp_sub/commuted": "6b0c8e7470d93750921820a06f73b06354a8de34f5acf39036919e5d0acedaf9",
    "fp_sub/edited": "06d656ab2df25739dc102f4a8996e6dd03e80a4d82396ba600e3cf7c4162e9ce",
    "fp_sub/renamed": "6b0c8e7470d93750921820a06f73b06354a8de34f5acf39036919e5d0acedaf9",
    "fp_sub/unconstrained": "0082e2143ff76aa29b4db96591cd9477fa921801f1127064fa76ed19e69bfefd",
    "interpolation": "d3e4b2d9b8f463ef4440c607b2974fe0c51b68741d2883935440f2bc7d116d8f",
    "interpolation/commuted": "d3e4b2d9b8f463ef4440c607b2974fe0c51b68741d2883935440f2bc7d116d8f",
    "lzc_example": "83c7c60fe413a90db4804da78b34f9b4cc6295a5414cea7765647b574a47cfd6",
    "multi/diff-sum": "803baa4cd485d3e57920aff121add4574b890f0c088473830c09500c5460f81b",
    "multi/ranged": "e4ebbbe16e576bc05ad67c732fd8a30e00aea5cc74ee0107f6513e4aec5e7bea",
    "multi/sum-diff": "803baa4cd485d3e57920aff121add4574b890f0c088473830c09500c5460f81b",
    "single/no-vars": "34cf7b2dcc2bfc52f8498a1e8c9e708faeb7039f7bc2a13f0d0f961acb172f3c",
    "single/square-plus": "59067f134c068d7ca3433c9f6407a0c7ca6414fa1be4619dc4dce2a628265917",
    "stress_wide": "81a7ee48c4883f482a451bd81457d7ffe22b421be79178567d7601960951c6c9",
    "stress_wide/edited": "a7894b5b94c8bcf5d1ec4412941fa533b98596c4fa949c50752abb991d9b18e6",
    "stress_wide/renamed": "81a7ee48c4883f482a451bd81457d7ffe22b421be79178567d7601960951c6c9",
    "unorm_to_float": "9b26089c770246e91c7b36e4f82fcda82c783b27ac9f4e42f5c7ccbb8245522a",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_digest(name):
    roots, ranges = CASES[name]
    assert canonical_digest(roots, ranges) == PINS[name]


def test_every_registry_design_is_pinned():
    assert set(DESIGNS) <= set(PINS) == set(CASES)


def test_output_digests_compose_into_the_canonical_digest():
    roots, ranges = CASES["stress_wide"]
    per_output = output_digests(roots, ranges)
    assert sorted(per_output) == sorted(roots)
    assert canonical_digest(roots, ranges) == hashlib.sha256(
        repr((tuple(sorted(per_output.values())),)).encode()
    ).hexdigest()


# ------------------------------------------------------- differential oracle
#: Few names and two widths so random DAGs are full of symmetric variables
#: (the greedy's tie cases); ranges on some names break some symmetries.
_NAMES = ("a", "b", "c", "d", "e")
_RANGES = {
    "a": IntervalSet.of(0, 3),
    "c": IntervalSet.of(0, 3),
    "e": IntervalSet.of(1, 2).union(IntervalSet.of(5, 9)),
}
_OPS = (ops.ADD, ops.MUL, ops.SUB, ops.AND, ops.MIN, ops.LT, ops.SHL)


@st.composite
def random_dags(draw) -> dict:
    """A DAG built bottom-up: each new node picks its children among all
    earlier nodes, so subterms are shared across parents and outputs."""
    pool = [
        var(name, draw(st.sampled_from((4, 8))))
        for name in draw(
            st.lists(st.sampled_from(_NAMES), min_size=1, max_size=5, unique=True)
        )
    ]
    pool += [const(v) for v in draw(st.lists(st.integers(0, 9), max_size=2))]
    for _ in range(draw(st.integers(0, 12))):
        pick = st.sampled_from(pool)
        kind = draw(st.integers(0, 9))
        if kind == 0:
            node = Expr(ops.MUX, (), (draw(pick), draw(pick), draw(pick)))
        elif kind == 1:
            node = Expr(ops.TRUNC, (draw(st.integers(1, 6)),), (draw(pick),))
        else:
            node = Expr(draw(st.sampled_from(_OPS)), (), (draw(pick), draw(pick)))
        pool.append(node)
    outputs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    return {f"o{i}": root for i, root in enumerate(outputs)}


@settings(max_examples=300, deadline=None)
@given(roots=random_dags(), ranged=st.booleans(), single=st.booleans())
def test_incremental_labeling_matches_the_whole_dag_greedy(roots, ranged, single):
    ranges = _RANGES if ranged else None
    if single:
        roots = roots["o0"]
    assert canonical_digest(roots, ranges) == oracle_canonical_digest(roots, ranges)


# ---------------------------------------------------------------- robustness
def test_a_deep_chain_digests_without_recursing():
    x, y = var("x", 8), var("y", 8)
    node = x
    for i in range(3 * sys.getrecursionlimit()):
        node = Expr(ops.ADD if i % 2 else ops.MUL, (), (node, y))
        hash(node)  # bottom-up, so the structural hash does not recurse
    digest = canonical_digest({"out": node})
    assert len(digest) == 64
    assert digest != canonical_digest({"out": Expr(ops.ADD, (), (node, x))})
