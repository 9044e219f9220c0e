"""Rules justified by the interval analysis (Section IV-B).

These are the "chain of branch specific rewrites and bitwidth reductions"
the paper describes: once ASSUME refinement tightens a class's range, these
rules exploit it structurally.  (Pure constant folding — a class whose range
is a singleton — happens in the analysis ``modify`` hook, both for total
classes and, wrapped in the same constraints, for ASSUME classes.)  A
pattern plus range guards is a declarative rule, and an attribute computed
from a range is bound at search time by a ``derive`` guard; two rules stay
dynamic:

* ``abs-identity`` / ``abs-negate`` — the paper's ``fabs(ASSUME(x, x>0)) ->
  ASSUME(x, x>0)`` example (Section IV-B);
* ``trunc-elim`` — truncation whose operand provably fits is a wire (this is
  how bitwidth reduction reaches the extracted netlist);
* ``lzc-narrow`` — Figure 1: when the range proves at most ``k`` leading
  zeros, a ``w``-bit LZC shrinks to a ``k+1``-bit LZC of the top bits;
* ``lzc-shl`` — an LZC of a left-shifted value counts on the unshifted value
  at reduced width;
* ``lzc-width-reduce`` (dynamic: it builds its LZC before its constant, the
  reverse of a bottom-up build) and ``lzc-norm-invariant`` (dynamic);
* ``minmax-resolve`` — order proven by disjoint ranges, one arm per outcome.
"""

from __future__ import annotations

import math

from repro.analysis import range_of, total_of
from repro.egraph.egraph import EGraph
from repro.egraph.rewrite import Rewrite, dynamic
from repro.ir import ops
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
    """

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.LZC, ()):
            (width,) = enode.attrs
            child = egraph.find(enode.children[0])
            top = range_of(egraph, child).max()
            if top is None:
                continue
            # Negative values make both sides * (LZC is undefined there),
            # so only the upper bound constrains the rewrite.
            m = max(top.bit_length(), 1)
            if m < width:
                yield egraph.find(class_id), {"x": child, "w": width, "m": m}

    def apply(egraph: EGraph, env: dict, class_id: int):
        narrow = egraph.add_node(ops.LZC, (env["m"],), (egraph.find(env["x"]),))
        offset = egraph.add_const(env["w"] - env["m"])
        return egraph.add_node(ops.ADD, (), (offset, narrow))

    return dynamic("lzc-width-reduce", search, apply)


def lzc_norm_invariant_rule() -> Rewrite:
    """``(a << c) << LZC_w(a << c)  ->  a << LZC_w(a)``.

    Normalization is left-shift invariant: pre-shifting by ``c`` only
    reduces the leading-zero count by ``c``, which the normalizing shift
    then does not need to apply.  This is the rewrite that collapses the
    behavioural FP subtractor's 42-bit normalize onto the narrow near-path
    significand (Section V).  Requires ``c`` total and non-negative and both
    ``a`` and ``a << c`` to fit ``w`` bits.
    """

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.SHL, ()):
            shifted, amount = (egraph.find(c) for c in enode.children)
            for lzc_node in egraph.members(amount, ops.LZC):
                (width,) = lzc_node.attrs
                if egraph.find(lzc_node.children[0]) != shifted:
                    continue
                # Negative values are * on both sides; only the upper bound
                # must stay inside the LZC's width.
                top = range_of(egraph, shifted).max()
                if top is None or top >= (1 << width):
                    continue
                for inner in egraph.members(shifted, ops.SHL):
                    base, pre = (egraph.find(c) for c in inner.children)
                    pre_lo = range_of(egraph, pre).min()
                    if pre_lo is None or pre_lo < 0 or not total_of(egraph, pre):
                        continue
                    base_top = range_of(egraph, base).max()
                    if base_top is None or base_top >= (1 << width):
                        continue
                    yield egraph.find(class_id), {"a": base, "w": width}

    def apply(egraph: EGraph, env: dict, class_id: int):
        base = egraph.find(env["a"])
        count = egraph.add_node(ops.LZC, (env["w"],), (base,))
        return egraph.add_node(ops.SHL, (), (base, count))

    return dynamic("lzc-norm-invariant", search, apply)


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
