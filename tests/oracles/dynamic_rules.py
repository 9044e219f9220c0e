"""Twelve rules as they were written before the rule language could
express them: Python searchers and appliers.

``abs-identity``, ``abs-negate``, ``trunc-elim`` and ``lzc-shl`` (from
``repro.rewrites.range_rules``) and ``trunc-trunc`` (from
``repro.rewrites.shift``) became declarative rules with search-time
guards.  ``mux-pull`` and ``mux-cond-const`` (``repro.rewrites.mux``),
``mul-pow2-shl`` (``repro.rewrites.arith``), ``assume-merge-nested`` and
``assume-true-elim`` (``repro.rewrites.assume``), and ``lzc-narrow`` and
``minmax-resolve`` (``repro.rewrites.range_rules``) followed as rules with
arms, constraint tails and search-time attributes.  These verbatim copies
of their dynamic versions are the reference
``tests/rewrites/test_declarative_port.py`` diffs the declarative rules
against: the same matches in the same order, and the same graph after
applying them.
"""

from __future__ import annotations

from repro.analysis import range_of, total_of
from repro.egraph.egraph import EGraph
from repro.egraph.enode import ENode
from repro.egraph.rewrite import Rewrite, dynamic
from repro.intervals import IntervalSet
from repro.ir import ops


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


def trunc_trunc_rule() -> Rewrite:
    """``TRUNC_v(TRUNC_w(a)) -> TRUNC_min(v,w)(a)``."""

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.TRUNC, ()):
            (outer_w,) = enode.attrs
            child = egraph.find(enode.children[0])
            for inner in egraph.members(child, ops.TRUNC):
                (inner_w,) = inner.attrs
                yield egraph.find(class_id), {
                    "a": egraph.find(inner.children[0]),
                    "w": min(outer_w, inner_w),
                }

    def apply(egraph: EGraph, env: dict, class_id: int):
        return egraph.add_node(ops.TRUNC, (env["w"],), (egraph.find(env["a"]),))

    return dynamic("trunc-trunc", search, apply)


#: Strict operators through which a mux may be pulled upward.
_PULLABLE = (
    ops.ADD, ops.SUB, ops.MUL, ops.NEG, ops.SHL, ops.SHR,
    ops.AND, ops.OR, ops.XOR, ops.NOT, ops.LNOT,
    ops.LT, ops.LE, ops.GT, ops.GE, ops.EQ, ops.NE,
    ops.LZC, ops.TRUNC, ops.SLICE, ops.CONCAT, ops.ABS, ops.MIN, ops.MAX,
)

def mux_pull_rule() -> Rewrite:
    """Pull a mux from any operand position up through a strict operator."""

    def search(egraph: EGraph, index: dict):
        for op in _PULLABLE:
            for class_id, enode in index.get(op, ()):
                for position, child in enumerate(enode.children):
                    child_root = egraph.find(child)
                    for inner in egraph.members(child_root, ops.MUX):
                        yield (
                            egraph.find(class_id),
                            {"outer": enode, "pos": position, "mux": inner},
                        )

    def apply(egraph: EGraph, env: dict, class_id: int):
        outer: ENode = env["outer"]
        position: int = env["pos"]
        inner: ENode = env["mux"]
        cond, if_true, if_false = inner.children
        # Pulling a mux through a strict op requires the *other* operands to
        # stay put; the condition hoists above the op, which is sound because
        # the op is strict and evaluates identically on both branch copies.
        kids_t = list(outer.children)
        kids_t[position] = if_true
        kids_f = list(outer.children)
        kids_f[position] = if_false
        on_true = egraph.add_node(outer.op, outer.attrs, tuple(kids_t))
        on_false = egraph.add_node(outer.op, outer.attrs, tuple(kids_f))
        return egraph.add_node(ops.MUX, (), (cond, on_true, on_false))

    return dynamic("mux-pull", search, apply)


def mux_cond_const_rule() -> Rewrite:
    """Prune a mux whose condition the analysis proves constant (Sec. VI)."""

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.MUX, ()):
            cond, if_true, if_false = enode.children
            if not total_of(egraph, cond):
                continue
            verdict = range_of(egraph, cond).truthiness()
            if verdict is True:
                yield egraph.find(class_id), {"keep": if_true}
            elif verdict is False:
                yield egraph.find(class_id), {"keep": if_false}

    def apply(egraph: EGraph, env: dict, class_id: int):
        return egraph.find(env["keep"])

    return dynamic("mux-cond-const", search, apply)


def mul_pow2_to_shl() -> Rewrite:
    """``a * 2^k -> a << k`` for constant powers of two (strength reduction)."""

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.MUL, ()):
            for position in (0, 1):
                value = egraph.class_const(enode.children[position])
                if value is not None and value > 0 and (value & (value - 1)) == 0:
                    other = enode.children[1 - position]
                    yield egraph.find(class_id), {
                        "a": other,
                        "k": value.bit_length() - 1,
                    }

    def apply(egraph: EGraph, env: dict, class_id: int):
        shift = egraph.add_const(env["k"])
        return egraph.add_node(ops.SHL, (), (egraph.find(env["a"]), shift))

    return dynamic("mul-pow2-shl", search, apply)


def assume_merge_nested_rule() -> Rewrite:
    """Row 3: collapse nested ASSUMEs, uniting their constraint sets."""

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.ASSUME, ()):
            guarded = egraph.find(enode.children[0])
            outer = tuple(egraph.find(c) for c in enode.children[1:])
            for inner in egraph.members(guarded, ops.ASSUME):
                yield egraph.find(class_id), {"inner": inner, "outer": outer}

    def apply(egraph: EGraph, env: dict, class_id: int):
        inner: ENode = env["inner"]
        merged = env["outer"] + tuple(inner.children[1:])
        return egraph.add_node(
            ops.ASSUME, (), (egraph.find(inner.children[0]),) + merged
        )

    return dynamic("assume-merge-nested", search, apply)


def assume_true_elim_rule() -> Rewrite:
    """``ASSUME(x, C) -> x`` when every constraint provably always holds."""

    def search(egraph: EGraph, index: dict):
        for class_id, enode in index.get(ops.ASSUME, ()):
            constraints = [egraph.find(c) for c in enode.children[1:]]
            if all(
                total_of(egraph, c) and range_of(egraph, c).truthiness() is True
                for c in constraints
            ):
                yield egraph.find(class_id), {"x": egraph.find(enode.children[0])}

    def apply(egraph: EGraph, env: dict, class_id: int):
        return egraph.find(env["x"])

    return dynamic("assume-true-elim", search, apply)


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
