"""Rules justified by the interval analysis (Section IV-B).

These are the "chain of branch specific rewrites and bitwidth reductions"
the paper describes: once ASSUME refinement tightens a class's range, these
rules exploit it structurally.  (Pure constant folding — a class whose range
is a singleton — happens in the analysis ``modify`` hook, both for total
classes and, wrapped in the same constraints, for ASSUME classes.)  A
pattern plus range guards is a declarative rule, and an attribute computed
from a range is bound at search time by a ``derive`` guard:

* ``abs-identity`` / ``abs-negate`` — the paper's ``fabs(ASSUME(x, x>0)) ->
  ASSUME(x, x>0)`` example (Section IV-B);
* ``trunc-elim`` — truncation whose operand provably fits is a wire (this is
  how bitwidth reduction reaches the extracted netlist);
* ``lzc-narrow`` — Figure 1: when the range proves at most ``k`` leading
  zeros, a ``w``-bit LZC shrinks to a ``k+1``-bit LZC of the top bits;
* ``lzc-shl`` — an LZC of a left-shifted value counts on the unshifted value
  at reduced width;
* ``lzc-width-reduce`` — an LZC of a value that fits ``m`` bits counts
  ``w - m`` constant zeros plus an ``m``-bit LZC;
* ``lzc-norm-invariant`` — normalizing a pre-shifted value lands where
  normalizing the unshifted one does;
* ``minmax-resolve`` — order proven by disjoint ranges, one arm per outcome.
"""

from __future__ import annotations

import math

from repro.egraph.rewrite import Rewrite
from repro.rewrites.soundness import (
    attr_lt,
    bounded,
    darm,
    derive,
    drule,
    fits,
    nonneg,
    range_le,
    total,
    unless,
)


def range_rules() -> list[Rewrite]:
    """All analysis-driven structural rules."""
    return [
        drule("abs-identity", "(abs ?x)", "?x", guards=(nonneg("x"),)),
        drule("abs-negate", "(abs ?x)", "(neg ?x)", guards=(bounded("x", hi=0),)),
        drule("trunc-elim", "(trunc ?w ?x)", "?x", guards=(fits("x", "?w"),)),
        # Figure 1: x >= 2^(w-1-k) implies at most k leading zeros, so only
        # the top k+1 bits can matter.  A range from 2^w up (where LZC_w is
        # * throughout) gives k < 0 and no narrower LZC.
        drule(
            "lzc-narrow",
            "(lzc ?w ?x)",
            "(lzc (+ ?k 1) (>> ?x (const (- (- ?w ?k) 1))))",
            guards=(
                bounded("x", lo=1),
                derive("k", "(- ?w (bitlen (lo ?x)))"),
                attr_lt("-1", "?k"),
                attr_lt("(+ ?k 1)", "?w"),
            ),
        ),
        # a == 0 breaks the identity (lzc_w(0) = w != w-s), so the range
        # must exclude zero as well as fit the narrow width.
        drule(
            "lzc-shl",
            "(lzc ?w (<< ?a (const ?s)))",
            "(lzc (- ?w ?s) ?a)",
            guards=(
                attr_lt("0", "?s"), attr_lt("?s", "?w"),
                bounded("a", lo=1), fits("a", "(- ?w ?s)"),
            ),
        ),
        lzc_width_reduce_rule(),
        lzc_norm_invariant_rule(),
        minmax_resolve_rule(),
    ]


def lzc_width_reduce_rule() -> Rewrite:
    """``LZC_w(x) -> (w - m) + LZC_m(x)`` when ``x`` provably fits m bits.

    Unlike ``lzc-narrow`` this works even when ``x`` may be zero (the near
    path of the FP subtractor, where catastrophic cancellation can zero the
    significand): every leading zero above bit ``m`` is a constant.
    Negative values make both sides * (LZC is undefined there), so only the
    upper bound constrains the rewrite.
    """
    return drule(
        "lzc-width-reduce",
        "(lzc ?w ?x)",
        "(+ (const (- ?w ?m)) (lzc ?m ?x))",
        guards=(derive("m", "(max (bitlen (hi ?x)) 1)"), attr_lt("?m", "?w")),
    )


def lzc_norm_invariant_rule() -> Rewrite:
    """``(a << c) << LZC_w(a << c)  ->  a << LZC_w(a)``.

    Normalization is left-shift invariant: pre-shifting by ``c`` only
    reduces the leading-zero count by ``c``, which the normalizing shift
    then does not need to apply.  This is the rewrite that collapses the
    behavioural FP subtractor's 42-bit normalize onto the narrow near-path
    significand (Section V).  Requires ``c`` total and non-negative and both
    ``a`` and ``a << c`` below ``2^w`` (negative values are * on both sides).
    """
    return drule(
        "lzc-norm-invariant",
        "(<< ?s (lzc ?w ?s@(<< ?a ?c)))",
        "(<< ?a (lzc ?w ?a))",
        guards=(bounded("s", "a", hi="(- (exp2 ?w) 1)"), nonneg("c"), total("c")),
    )


def minmax_resolve_rule() -> Rewrite:
    """Resolve MIN/MAX whose operand ranges are provably ordered: per
    operator, the arm keeping the side proved smaller (MIN) or larger (MAX)
    when ``a <= b``, else the other when ``b <= a``.  The second arm is an
    ``elif``: with equal point ranges only the first is tried, even when its
    dropped side is partial."""
    finite = bounded("a", "b", lo=-math.inf, hi=math.inf)
    a_le_b, b_le_a = range_le("a", "b"), range_le("b", "a")
    return Rewrite("minmax-resolve", (
        darm("(min ?a ?b)", "?a", guards=(finite, a_le_b, total("b"))),
        darm("(min ?a ?b)", "?b", guards=(finite, b_le_a, unless(a_le_b), total("a"))),
        darm("(max ?a ?b)", "?b", guards=(finite, a_le_b, total("a"))),
        darm("(max ?a ?b)", "?a", guards=(finite, b_le_a, unless(a_le_b), total("b"))),
    ))
