"""Shift and truncation algebra (bitwidth-reduction support).

Shift-combination rules require non-negative shift amounts (a negative shift
is ``*`` concretely, and e.g. ``(a << -1) >> 1`` is not ``a``); the analysis
provides the proof through the :func:`~repro.rewrites.soundness.nonneg`
guard.  Every rule here is declarative; ``trunc-trunc`` computes its width
in the right-hand side, ``(trunc (min ?v ?w) ?a)``.
"""

from __future__ import annotations

from repro.egraph.rewrite import Rewrite
from repro.rewrites.soundness import drule, nonneg, range_le


def shift_rules() -> list[Rewrite]:
    """Shift / truncate algebra."""
    return [
        drule("shl-zero", "(<< ?a 0)", "?a"),
        drule("shr-zero", "(>> ?a 0)", "?a"),
        drule("shl-shl", "(<< (<< ?a ?b) ?c)", "(<< ?a (+ ?b ?c))", nonneg("b", "c")),
        drule("shl-split", "(<< ?a (+ ?b ?c))", "(<< (<< ?a ?b) ?c)", nonneg("b", "c")),
        drule("shr-shr", "(>> (>> ?a ?b) ?c)", "(>> ?a (+ ?b ?c))", nonneg("b", "c")),
        drule("shl-shr-cancel", "(>> (<< ?a ?b) ?b)", "?a", nonneg("b")),
        # Exact floor identities: a*2^k / 2^c is a shift by |k - c| (the
        # alignment collapse that exposes the near/far paths, Section V).
        drule(
            "shr-shl-le",
            "(>> (<< ?a ?k) ?c)",
            "(<< ?a (- ?k ?c))",
            nonneg("c"),
            range_le("c", "k"),
        ),
        drule(
            "shr-shl-ge",
            "(>> (<< ?a ?k) ?c)",
            "(>> ?a (- ?c ?k))",
            nonneg("k"),
            range_le("k", "c"),
        ),
        # Factor a common left shift out of a subtraction / addition:
        # (a<<j) - (b<<k)  ->  ((a << (j-k)) - b) << k   (k <= j).
        drule(
            "shl-sub-align",
            "(- (<< ?a ?j) (<< ?b ?k))",
            "(<< (- (<< ?a (- ?j ?k)) ?b) ?k)",
            nonneg("k"),
            range_le("k", "j"),
        ),
        drule(
            "shl-add-align",
            "(+ (<< ?a ?j) (<< ?b ?k))",
            "(<< (+ (<< ?a (- ?j ?k)) ?b) ?k)",
            nonneg("k"),
            range_le("k", "j"),
        ),
        # Left shifts distribute over +/- exactly (integers, s >= 0).
        drule("shl-add", "(<< (+ ?a ?b) ?c)", "(+ (<< ?a ?c) (<< ?b ?c))", nonneg("c")),
        drule("shl-add-rev", "(+ (<< ?a ?c) (<< ?b ?c))", "(<< (+ ?a ?b) ?c)", nonneg("c")),
        drule("shl-sub", "(<< (- ?a ?b) ?c)", "(- (<< ?a ?c) (<< ?b ?c))", nonneg("c")),
        drule("shl-sub-rev", "(- (<< ?a ?c) (<< ?b ?c))", "(<< (- ?a ?b) ?c)", nonneg("c")),
        # Truncation of a truncation keeps the narrower width.
        drule("trunc-trunc", "(trunc ?v (trunc ?w ?a))", "(trunc (min ?v ?w) ?a)"),
        # trunc distributes over | and & (bit-masking view).
        drule("trunc-or", "(trunc ?w (| ?a ?b))", "(| (trunc ?w ?a) (trunc ?w ?b))", nonneg("a", "b")),
        drule("trunc-and", "(trunc ?w (& ?a ?b))", "(& (trunc ?w ?a) (trunc ?w ?b))", nonneg("a", "b")),
    ]
