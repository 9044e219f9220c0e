"""The five range- and shape-guarded rules as they were written before the
rule language could express them: Python searchers and appliers.

``abs-identity``, ``abs-negate``, ``trunc-elim`` and ``lzc-shl`` (from
``repro.rewrites.range_rules``) and ``trunc-trunc`` (from
``repro.rewrites.shift``) are now declarative rules with search-time
guards.  These verbatim copies of their dynamic versions are the reference
``tests/rewrites/test_declarative_port.py`` diffs the declarative rules
against: the same matches in the same order, and the same graph after
applying them.
"""

from __future__ import annotations

from repro.analysis import range_of
from repro.egraph.egraph import EGraph
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
