"""Dynamic rules justified by the interval analysis (Section IV-B).

These are the "chain of branch specific rewrites and bitwidth reductions"
the paper describes: once ASSUME refinement tightens a class's range, these
rules exploit it structurally.  (Pure constant folding — a class whose range
is a singleton — happens in the analysis ``modify`` hook, both for total
classes and, wrapped in the same constraints, for ASSUME classes.)

* ``abs-identity`` / ``abs-negate`` — the paper's ``fabs(ASSUME(x, x>0)) ->
  ASSUME(x, x>0)`` example (Section IV-B);
* ``trunc-elim`` — truncation whose operand provably fits is a wire (this is
  how bitwidth reduction reaches the extracted netlist);
* ``lzc-narrow`` — Figure 1: when the range proves at most ``k`` leading
  zeros, a ``w``-bit LZC shrinks to a ``k+1``-bit LZC of the top bits;
* ``lzc-shl`` — an LZC of a left-shifted value counts on the unshifted value
  at reduced width;
* ``min-resolve`` / ``max-resolve`` — order proven by disjoint ranges.
"""

from __future__ import annotations

from repro.analysis import range_of, total_of
from repro.egraph.egraph import EGraph
from repro.egraph.rewrite import Rewrite, dynamic
from repro.intervals import IntervalSet
from repro.ir import ops


def range_rules() -> list[Rewrite]:
    """All analysis-driven structural rules."""
    return [
        abs_identity_rule(),
        abs_negate_rule(),
        trunc_elim_rule(),
        lzc_narrow_rule(),
        lzc_shl_rule(),
        lzc_width_reduce_rule(),
        lzc_norm_invariant_rule(),
        minmax_resolve_rule(),
    ]


def abs_identity_rule() -> Rewrite:
    """``ABS(x) -> x`` when the range proves ``x >= 0``."""

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.ABS, ()):
            child = egraph.find(enode.children[0])
            low = range_of(egraph, child).min()
            if low is not None and low >= 0:
                yield egraph.find(class_id), {"x": child}

    def apply(egraph: EGraph, env: dict, class_id: int):
        return egraph.find(env["x"])

    return dynamic("abs-identity", search, apply)


def abs_negate_rule() -> Rewrite:
    """``ABS(x) -> NEG(x)`` when the range proves ``x <= 0``."""

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.ABS, ()):
            child = egraph.find(enode.children[0])
            high = range_of(egraph, child).max()
            if high is not None and high <= 0:
                yield egraph.find(class_id), {"x": child}

    def apply(egraph: EGraph, env: dict, class_id: int):
        return egraph.add_node(ops.NEG, (), (egraph.find(env["x"]),))

    return dynamic("abs-negate", search, apply)


def trunc_elim_rule() -> Rewrite:
    """``TRUNC_w(x) -> x`` when the range proves ``x`` fits in ``w`` bits."""

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.TRUNC, ()):
            (width,) = enode.attrs
            child = egraph.find(enode.children[0])
            if range_of(egraph, child).issubset(IntervalSet.unsigned(width)):
                yield egraph.find(class_id), {"x": child}

    def apply(egraph: EGraph, env: dict, class_id: int):
        return egraph.find(env["x"])

    return dynamic("trunc-elim", search, apply)


def lzc_narrow_rule() -> Rewrite:
    """Figure 1: ``LZC_w(x) -> LZC_{k+1}(x >> (w-k-1))`` when lzc(x) <= k.

    The bound ``k`` comes from the analysis: ``x >= 2^(w-1-k)`` implies at
    most ``k`` leading zeros, so only the top ``k+1`` bits can matter.
    """

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.LZC, ()):
            (width,) = enode.attrs
            child = egraph.find(enode.children[0])
            low = range_of(egraph, child).min()
            if low is None or low < 1:
                continue
            max_leading_zeros = width - low.bit_length()
            if max_leading_zeros + 1 >= width:
                continue
            yield egraph.find(class_id), {
                "x": child, "w": width, "k": max_leading_zeros,
            }

    def apply(egraph: EGraph, env: dict, class_id: int):
        width, k = env["w"], env["k"]
        shift = egraph.add_const(width - k - 1)
        shifted = egraph.add_node(ops.SHR, (), (egraph.find(env["x"]), shift))
        return egraph.add_node(ops.LZC, (k + 1,), (shifted,))

    return dynamic("lzc-narrow", search, apply)


def lzc_shl_rule() -> Rewrite:
    """``LZC_w(a << s) -> LZC_{w-s}(a)`` when ``a`` fits in ``w - s`` bits."""

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.LZC, ()):
            (width,) = enode.attrs
            child = egraph.find(enode.children[0])
            for inner in egraph.members(child, ops.SHL):
                shift = egraph.class_const(inner.children[1])
                if shift is None or not 0 < shift < width:
                    continue
                base = egraph.find(inner.children[0])
                # a == 0 breaks the identity (lzc_w(0) = w != w-s), so the
                # range must exclude zero as well as fit the narrow width.
                base_range = range_of(egraph, base)
                lo = base_range.min()
                if lo is None or lo < 1:
                    continue
                if base_range.issubset(IntervalSet.unsigned(width - shift)):
                    yield egraph.find(class_id), {"a": base, "w2": width - shift}

    def apply(egraph: EGraph, env: dict, class_id: int):
        return egraph.add_node(ops.LZC, (env["w2"],), (egraph.find(env["a"]),))

    return dynamic("lzc-shl", search, apply)


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
    """Resolve MIN/MAX whose operand ranges are provably ordered."""

    def search(egraph: EGraph, index: dict):
        for op in (ops.MIN, ops.MAX):
            for class_id, enode in index.get(op, ()):
                left, right = (egraph.find(c) for c in enode.children)
                lo_l, hi_l = range_of(egraph, left).min(), range_of(egraph, left).max()
                lo_r, hi_r = range_of(egraph, right).min(), range_of(egraph, right).max()
                if None in (lo_l, hi_l, lo_r, hi_r):
                    continue
                if hi_l <= lo_r:  # left <= right everywhere
                    keep, drop = (left, right) if op is ops.MIN else (right, left)
                elif hi_r <= lo_l:  # right <= left everywhere
                    keep, drop = (right, left) if op is ops.MIN else (left, right)
                else:
                    continue
                if total_of(egraph, drop):
                    yield egraph.find(class_id), {"keep": keep}

    def apply(egraph: EGraph, env: dict, class_id: int):
        return egraph.find(env["keep"])

    return dynamic("minmax-resolve", search, apply)
